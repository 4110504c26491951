package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"lotec/internal/directory"
	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/o2pl"
	"lotec/internal/server"
	"lotec/internal/wire"
)

// Per-path perf ledger: microbenchmarks over the pooled data-plane
// primitives (codec encode/decode, frame read/write), the directory
// acquire/release fast path, and the TCP call path the three of them feed.
// Each row lands in BENCH_results.json next to the workload rows, and the
// smoke gate reruns the set against the committed values — the continuous
// record of where each hot path's ns/op and allocs/op stand.

// perfMsg builds the representative data-plane message the codec and frame
// rows price: a one-page fetch reply, the most common payload-carrying
// frame on a LOTEC wire.
func perfMsg() (wire.Envelope, *wire.MultiFetchResp) {
	page := make([]byte, 256)
	for i := range page {
		page[i] = byte(i)
	}
	env := wire.Envelope{ReqID: 42, From: 1, To: 2}
	return env, &wire.MultiFetchResp{Objs: []wire.ObjPayload{{
		Obj:   ids.ObjectID(7),
		Pages: []wire.PagePayload{{Page: 3, Version: 9, Data: page}},
	}}}
}

// benchRow runs one Go benchmark function and flattens its result into a
// ledger row.
func benchRow(op string, fn func(b *testing.B)) benchResult {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	return benchResult{
		Op:          op,
		Ops:         r.N,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
	}
}

// countWriter swallows writes without allocating — the in-memory stand-in
// for a TCP connection's Write in the frame-write row.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// perfLedger measures every hot-path row. The codec/frame rows exercise the
// pooled encode buffers and in-place decode views end to end; the directory
// row exercises the scratch-backed acquire/release path with immediate
// grants; the tcp-call row is a whole RPC between two endpoints on
// loopback. Steady-state allocations per op should stay near zero on the
// pooled paths and small and constant on decode (the message struct and its
// payload headers; page bytes alias the frame) — which is all a call
// allocates too, once at each end.
func perfLedger() ([]benchResult, error) {
	env, msg := perfMsg()

	rows := []benchResult{
		benchRow("perf/codec-encode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				frame := wire.EncodeFrame(env, msg)
				wire.ReleaseFrame(frame)
			}
		}),
	}

	encoded := wire.Encode(env, msg)
	rows = append(rows, benchRow("perf/codec-decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := wire.DecodeView(encoded); err != nil {
				b.Fatal(err)
			}
		}
	}))

	framed := wire.EncodeFrame(env, msg)
	stream := append([]byte(nil), framed...)
	wire.ReleaseFrame(framed)
	rows = append(rows, benchRow("perf/frame-read", func(b *testing.B) {
		r := bytes.NewReader(stream)
		for i := 0; i < b.N; i++ {
			r.Reset(stream)
			buf, err := wire.ReadFrame(r)
			if err != nil {
				b.Fatal(err)
			}
			wire.ReleaseFrame(buf)
		}
	}))

	rows = append(rows, benchRow("perf/frame-write", func(b *testing.B) {
		var sink countWriter
		for i := 0; i < b.N; i++ {
			frame := wire.EncodeFrame(env, msg)
			if _, err := sink.Write(frame); err != nil {
				b.Fatal(err)
			}
			wire.ReleaseFrame(frame)
		}
	}))

	var dirErr error
	rows = append(rows, benchRow("perf/directory-acquire-release", func(b *testing.B) {
		const objects = 64
		s := directory.NewSharded(1, 1)
		for o := ids.ObjectID(1); o <= objects; o++ {
			if err := s.Register(o, 1, 1); err != nil {
				dirErr = err
				b.Skip(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			obj := ids.ObjectID(i%objects + 1)
			fam := ids.FamilyID(i + 1)
			ref := ids.TxRef{Tx: ids.TxID(fam), Node: 1}
			if _, _, err := s.Acquire(obj, ref, fam, uint64(fam), 1, o2pl.Write); err != nil {
				dirErr = err
				b.Skip(err)
			}
			if _, _, err := s.Release(fam, 1, false, []gdo.ObjectRelease{{Obj: obj}}); err != nil {
				dirErr = err
				b.Skip(err)
			}
		}
	}))
	if dirErr != nil {
		return nil, fmt.Errorf("perf ledger: directory row: %w", dirErr)
	}

	call, err := tcpCallRow()
	if err != nil {
		return nil, fmt.Errorf("perf ledger: tcp-call row: %w", err)
	}
	rows = append(rows, call)

	for _, r := range rows {
		fmt.Printf("%-32s %10d ops  %8.0f ns/op  %6.2f allocs/op\n", r.Op, r.Ops, r.NsPerOp, r.AllocsPerOp)
	}
	return rows, nil
}

// echoPair starts two connected endpoints on loopback, nodes 1 and 2; node 2
// answers every call with one preallocated reply, so what is measured over
// the pair is the transport's own cost and nothing of a handler's. stop
// closes both.
func echoPair() (a, b *server.TCPNet, stop func(), err error) {
	addrs, err := calibFreeAddrs(2)
	if err != nil {
		return nil, nil, nil, err
	}
	table := map[ids.NodeID]string{1: addrs[0], 2: addrs[1]}
	a, b = server.NewTCPNet(1, table), server.NewTCPNet(2, table)
	reply := &wire.ReleaseResp{}
	b.SetHandler(func(ids.NodeID, wire.Msg) wire.Msg { return reply })
	stop = func() {
		_ = a.Close()
		_ = b.Close()
	}
	for _, n := range []*server.TCPNet{a, b} {
		if err := n.Listen(); err != nil {
			stop()
			return nil, nil, nil, err
		}
	}
	return a, b, stop, nil
}

// tcpCallRow prices one TCPNet.Call round trip: a control-sized request to
// the echo peer, so the row holds the call table, the frames and two socket
// hops.
func tcpCallRow() (benchResult, error) {
	a, _, stop, err := echoPair()
	if err != nil {
		return benchResult{}, err
	}
	defer stop()
	req := &wire.ReleaseReq{Family: 9, Site: 1, Commit: true}
	var callErr error
	row := benchRow("perf/tcp-call", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := a.Call(2, req); err != nil {
				callErr = err
				b.Skip(err)
			}
		}
	})
	return row, callErr
}

// checkPerfLedger is the smoke gate over the per-path rows: rerun the
// ledger and compare each row against the committed one. ns/op gets the
// wide wall-clock slack; allocs/op gets the tight multiplicative band plus
// half an allocation of absolute headroom, so a pooled path committed at
// zero still fails the moment a real per-op allocation appears.
func checkPerfLedger(path string) error {
	doc, err := readBenchDoc(path)
	if err != nil {
		return err
	}
	committed := make(map[string]benchResult)
	for _, r := range doc.Results {
		if strings.HasPrefix(r.Op, "perf/") {
			committed[r.Op] = r
		}
	}
	if len(committed) == 0 {
		fmt.Printf("smoke: no perf/ rows in %s; skipping per-path gates\n", path)
		return nil
	}
	rows, err := perfLedger()
	if err != nil {
		return err
	}
	for _, got := range rows {
		base, ok := committed[got.Op]
		if !ok {
			fmt.Printf("smoke: %s has no committed row; skipping\n", got.Op)
			continue
		}
		if base.NsPerOp > 0 && got.NsPerOp > base.NsPerOp*smokeNsSlack {
			return fmt.Errorf("ns_per_op regressed: %s runs at %.0f ns/op, committed %.0f (limit %.0fx)",
				got.Op, got.NsPerOp, base.NsPerOp, smokeNsSlack)
		}
		if limit := base.AllocsPerOp*smokeAllocsSlack + 0.5; got.AllocsPerOp > limit {
			return fmt.Errorf("allocs_per_op regressed: %s allocates %.2f/op, committed %.2f (limit %.2f)",
				got.Op, got.AllocsPerOp, base.AllocsPerOp, limit)
		}
	}
	fmt.Printf("smoke ok: %d perf/ rows within slack\n", len(rows))
	return nil
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/o2pl"
	"lotec/internal/server"
	"lotec/internal/wire"
)

// The perf/ entry: microbenchmarks over the pooled data-plane primitives
// (codec encode/decode, frame read/write), the directory acquire/release
// fast path, and the TCP call path the three of them feed — the continuous
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

// perfRows measures every hot-path row. The codec/frame rows exercise the
// pooled encode buffers and in-place decode views end to end; the directory
// row exercises the scratch-backed acquire/release path with immediate
// grants; the tcp-call row is a whole RPC between two endpoints on
// loopback. Steady-state allocations per op should stay near zero on the
// pooled paths and small and constant on decode (the message struct and its
// payload headers; page bytes alias the frame) — which is all a call
// allocates too, once at each end.
func perfRows() ([]benchResult, error) {
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
		for i := 0; i < b.N; i++ { // io.Discard stands in for a connection's Write
			frame := wire.EncodeFrame(env, msg)
			if _, err := io.Discard.Write(frame); err != nil {
				b.Fatal(err)
			}
			wire.ReleaseFrame(frame)
		}
	}))

	var dirErr error
	rows = append(rows, benchRow("perf/directory-acquire-release", func(b *testing.B) {
		const objects = 64
		s := gdo.New(1)
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
		return nil, fmt.Errorf("directory row: %w", dirErr)
	}

	call, err := tcpCallRow()
	if err != nil {
		return nil, fmt.Errorf("tcp-call row: %w", err)
	}
	return append(rows, call), nil
}

// echoPair starts two connected endpoints on loopback, nodes 1 and 2; node 2
// answers every call with one preallocated reply, so what is measured over
// the pair is the transport's own cost and nothing of a handler's. stop
// closes both.
func echoPair() (a, b *server.TCPNet, stop func(), err error) {
	addrs, err := freeAddrs(2)
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

package wire

import (
	"bytes"
	"reflect"
	"testing"

	"lotec/internal/gdo"
	"lotec/internal/ids"
)

// FuzzDecode throws arbitrary bytes at the codec. Decode must never panic,
// and any buffer it accepts must re-encode canonically: Encode(env, m)
// produces exactly Size bytes that decode back to a deep-equal message.
func FuzzDecode(f *testing.F) {
	// Seed with one valid encoding of every registered type (zero-valued
	// and filled payloads), then structured malformations of each.
	for tag := 1; tag <= 255; tag++ {
		m, err := newMsg(MsgType(tag))
		if err != nil {
			continue
		}
		env := Envelope{ReqID: uint64(tag), From: 1, To: 2}
		f.Add(Encode(env, m))

		ctr := int64(0)
		filled := reflect.New(reflect.TypeOf(m).Elem()).Interface().(Msg)
		fill(reflect.ValueOf(filled), &ctr)
		buf := Encode(env, filled)
		f.Add(buf)
		f.Add(buf[:HeaderSize])  // body stripped
		f.Add(buf[:len(buf)-1])  // truncated mid-body
		f.Add(append(buf, 0xAA)) // trailing garbage
		short := append([]byte(nil), buf...)
		short[17] = 0xFF // corrupt bodyLen low byte
		f.Add(short)
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(bytes.Repeat([]byte{0xFF}, HeaderSize))
	f.Add(bytes.Repeat([]byte{0x00}, HeaderSize))

	// Hand-built seeds for the batched xfer messages: ragged nested shapes
	// (empty inner page lists, mixed payload sizes) that the uniform fill()
	// seeds above never produce.
	batched := []Msg{
		&MultiFetchReq{Demand: true, Objs: []ObjPages{
			{Obj: 3, Pages: []ids.PageNum{0, 7, 2}},
			{Obj: 9, Pages: nil},
			{Obj: 1, Pages: []ids.PageNum{5}}}},
		&MultiFetchResp{Objs: []ObjPayload{
			{Obj: 3, Pages: []PagePayload{
				{Page: 0, Version: 12, Data: bytes.Repeat([]byte{0xAB}, 64)},
				{Page: 7, Version: 1, Data: []byte{}}}},
			{Obj: 9, Pages: nil}}},
		&MultiPushReq{Objs: []ObjPayload{
			{Obj: 2, Pages: []PagePayload{{Page: 1, Version: 5, Data: []byte{1}}}},
			{Obj: 4, Pages: []PagePayload{
				{Page: 0, Version: 9, Data: bytes.Repeat([]byte{0x5A}, 17)},
				{Page: 3, Version: 9, Data: []byte{0, 0, 0}}}}}},
	}
	for _, m := range batched {
		f.Add(Encode(Envelope{ReqID: 7, From: 3, To: 4}, m))
	}

	// Delta-bearing seeds: version-aware fetches piggybacking resident base
	// versions, responses and pushes answering with dirty-range deltas, and
	// well-framed but semantically invalid deltas (overlapping runs,
	// out-of-bounds offsets, version gaps, run/payload length mismatches —
	// Encode frames whatever it is given; Decode must reject these with an
	// error, never a panic).
	deltas := []Msg{
		&MultiFetchReq{Objs: []ObjPages{
			{Obj: 3, Pages: []ids.PageNum{0, 2}, Bases: []uint64{12, 0}},
			{Obj: 5, Pages: []ids.PageNum{1}}}},
		&MultiFetchResp{Objs: []ObjPayload{
			{Obj: 3,
				Pages: []PagePayload{{Page: 2, Version: 4, Data: bytes.Repeat([]byte{0xC3}, 32)}},
				Deltas: []DeltaPage{{Page: 0, Base: 12, Version: 13,
					Runs: []Span{{Off: 0, Len: 2}, {Off: 16, Len: 3}},
					Data: []byte{1, 2, 3, 4, 5}}}}}},
		&MultiPushReq{ReqID: 1<<41 + 1, Objs: []ObjPayload{
			{Obj: 8, Deltas: []DeltaPage{{Page: 1, Base: 6, Version: 7,
				Runs: []Span{{Off: 8, Len: 1}}, Data: []byte{0xEE}}}}}},
		// Overlapping runs.
		&MultiPushReq{Objs: []ObjPayload{{Obj: 1, Deltas: []DeltaPage{{
			Base: 1, Version: 2, Runs: []Span{{Off: 0, Len: 8}, {Off: 4, Len: 4}},
			Data: bytes.Repeat([]byte{9}, 12)}}}}},
		// Offset+length out of bounds.
		&MultiFetchResp{Objs: []ObjPayload{{Obj: 1, Deltas: []DeltaPage{{
			Base: 1, Version: 2, Runs: []Span{{Off: 1<<24 - 2, Len: 8}},
			Data: bytes.Repeat([]byte{9}, 8)}}}}},
		// Version gap (base not strictly before target).
		&MultiFetchResp{Objs: []ObjPayload{{Obj: 1, Deltas: []DeltaPage{{
			Base: 5, Version: 5, Runs: []Span{{Off: 0, Len: 1}}, Data: []byte{1}}}}}},
		// Runs cover fewer bytes than the payload carries.
		&MultiPushReq{Objs: []ObjPayload{{Obj: 1, Deltas: []DeltaPage{{
			Base: 1, Version: 2, Runs: []Span{{Off: 0, Len: 4}}, Data: []byte{1, 2, 3}}}}}},
		// Empty run.
		&MultiFetchResp{Objs: []ObjPayload{{Obj: 1, Deltas: []DeltaPage{{
			Base: 1, Version: 2, Runs: []Span{{Off: 4, Len: 0}}, Data: nil}}}}},
	}
	for _, m := range deltas {
		buf := Encode(Envelope{ReqID: 11, From: 2, To: 1}, m)
		f.Add(buf)
		f.Add(buf[:len(buf)-2]) // truncated mid-delta
	}

	// Seeds for the request-ID-bearing (Idempotent) bodies: stamped with a
	// retry-layer dedup key, plus a truncation that cuts through the ReqID
	// field itself (the first body field, so headerSize+4 splits it).
	idempotent := []Msg{
		&AcquireReq{ReqID: 1 << 40, Obj: 9, Mode: 2, Site: 3, Shard: 1},
		&ReleaseReq{ReqID: 1<<40 + 1, Site: 2, Shard: 1},
		&CopySetReq{ReqID: 1<<40 + 2, Objs: []ids.ObjectID{4, 5}},
		&MultiFetchReq{ReqID: 1<<40 + 3, Objs: []ObjPages{{Obj: 2, Pages: []ids.PageNum{0}}}},
		&MultiPushReq{ReqID: 1<<40 + 4, Objs: []ObjPayload{{Obj: 2, Pages: []PagePayload{{Page: 0, Version: 1, Data: []byte{7}}}}}},
	}
	for _, m := range idempotent {
		buf := Encode(Envelope{ReqID: 9, From: 1, To: 2}, m)
		f.Add(buf)
		f.Add(buf[:HeaderSize+4])
	}

	// Replication control-plane seeds: epoch-stamped lock traffic (the
	// optional trailing Epoch section, present and absent), placement maps
	// of various shard counts including the degenerate single-shard map,
	// and handoff payloads whose State blob is arbitrary bytes.
	onePrimary := []ids.NodeID{3}
	oneBackup := []ids.NodeID{4}
	wideMap := PlacementMap{Epoch: 7, Nodes: 2, Primary: []ids.NodeID{3, 4, 3}, Backup: []ids.NodeID{4, 3, 4}}
	replication := []Msg{
		&AcquireReq{ReqID: 1<<42 + 1, Obj: 2, Mode: 1, Site: 1, Shard: 0, Epoch: 5},
		&ReleaseReq{ReqID: 1<<42 + 2, Site: 1, Shard: 2, Epoch: 1<<63 + 9},
		&ReplicateReq{ReqID: 1<<42 + 3, Shard: 1, Epoch: 4, Seq: 88, Client: 2,
			Op:     Encode(Envelope{From: 2, To: 3}, &AcquireReq{ReqID: 12, Obj: 5, Mode: 2, Site: 2, Shard: 1, Epoch: 4}),
			Purges: []ids.FamilyID{9}, Aborts: []ids.FamilyID{11, 12}},
		&ReplicateResp{OK: true, Map: PlacementMap{Epoch: 4, Nodes: 2, Primary: onePrimary, Backup: oneBackup}},
		&PromoteReq{ReqID: 1<<42 + 4, Dead: 3, Epoch: 4},
		&PromoteResp{Map: wideMap},
		&EpochChangeReq{ReqID: 1<<42 + 5, Map: wideMap},
		&EpochChangeResp{OK: false, Map: wideMap},
		&HandoffStartReq{ReqID: 1<<42 + 6, Shard: 2, Target: 4},
		&HandoffStartResp{OK: true, StateBytes: 512, Map: wideMap},
		&HandoffReq{ReqID: 1<<42 + 7, Shard: 2, Seq: 31, Map: wideMap,
			State: bytes.Repeat([]byte{0x42}, 96)},
		&HandoffResp{OK: true, Map: wideMap},
		&RouteResp{Map: wideMap},
		&WaitEdgeUpdate{ReqID: 1<<42 + 8, Ver: 3, Epoch: 7,
			Edges: []WaitEdge{{From: 1, To: 2}, {From: 2, To: 3}},
			Ages:  []FamilyAge{{Family: 1, Age: 10}, {Family: 2, Age: 20}}},
		&WaitEdgeResp{Map: wideMap},
		&AbortFamilyReq{ReqID: 1<<42 + 9, Family: 5, Epoch: 7},
		&AbortFamilyResp{},
	}
	for _, m := range replication {
		buf := Encode(Envelope{ReqID: 13, From: 4, To: 3}, m)
		f.Add(buf)
		f.Add(buf[:len(buf)-3]) // truncated mid-body
	}

	// An empty committing release and its empty reply: both zero-length
	// lists, with and without the trailing epoch section, cut and corrupted
	// the way the per-type seeds above are. No engine sends one any more,
	// but the decoder must still take it apart safely.
	commitPoint := []Msg{
		&ReleaseReq{ReqID: 1<<42 + 10, Family: 5, Site: 1, Commit: true, Shard: 0, Epoch: 7},
		&ReleaseReq{Family: 5, Site: 1, Commit: true},
		&ReleaseResp{},
	}
	for _, m := range commitPoint {
		buf := Encode(Envelope{ReqID: 14, From: 1, To: 3}, m)
		f.Add(buf)
		f.Add(buf[:HeaderSize])                          // body stripped
		f.Add(buf[:HeaderSize+4])                        // cut inside the first body field
		f.Add(buf[:len(buf)-1])                          // truncated mid-body
		f.Add(append(append([]byte(nil), buf...), 0xAA)) // trailing garbage
		short := append([]byte(nil), buf...)
		short[17] = 0xFF // corrupt bodyLen low byte
		f.Add(short)
	}

	// Site-retained grants: an adopting acquire (the flag shares the mode
	// byte), a release reply with and without the trailing kept section, and
	// the recall itself.
	retention := []Msg{
		&AcquireReq{Obj: 9, Family: 4, Site: 3, Mode: 2, Adopt: true},
		&AcquireReq{ReqID: 1<<42 + 11, Obj: 9, Family: 4, Site: 3, Mode: 1, Adopt: true, Epoch: 7},
		&ReleaseResp{Shard: 1, Kept: []ids.ObjectID{9}},
		&ReleaseResp{Stamps: []gdo.PageStamp{{Obj: 9, Page: 0, Version: 3}}, Kept: []ids.ObjectID{9, 12}},
		&Recall{Obj: 9, Family: ids.SiteFamily(3), Shard: 1},
	}
	for _, m := range retention {
		buf := Encode(Envelope{ReqID: 15, From: 3, To: 1}, m)
		f.Add(buf)
		f.Add(buf[:len(buf)-1])                          // truncated mid-body
		f.Add(append(append([]byte(nil), buf...), 0, 0)) // trailing garbage
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		env, m, err := Decode(data)

		// DecodeView must accept and reject exactly the same inputs as the
		// copying decode (truncations and corruptions included), and on
		// success produce a deep-equal message whose Retain severs every
		// alias into the input buffer.
		viewBuf := append([]byte(nil), data...)
		venv, vm, verr := DecodeView(viewBuf)
		if (err == nil) != (verr == nil) {
			t.Fatalf("Decode err=%v but DecodeView err=%v on the same bytes", err, verr)
		}
		if err != nil {
			return
		}
		if venv != env {
			t.Fatalf("view envelope %+v, copy envelope %+v", venv, env)
		}
		if !reflect.DeepEqual(m, vm) {
			t.Fatalf("%T: view decode differs from copy decode:\n copy %+v\n view %+v", m, m, vm)
		}
		Retain(vm)
		for i := range viewBuf {
			viewBuf[i] = 0xDB
		}
		if !reflect.DeepEqual(m, vm) {
			t.Fatalf("%T: Retain left a field aliasing the buffer", m)
		}

		re := Encode(env, m)
		if len(re) != m.Size() {
			t.Fatalf("re-encode of %T produced %d bytes, Size says %d", m, len(re), m.Size())
		}
		env2, m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded %T failed to decode: %v", m, err)
		}
		if env2 != env {
			t.Fatalf("envelope drift: %+v -> %+v", env, env2)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("%T drifted across re-encode:\n first %+v\n second %+v", m, m, m2)
		}
	})
}

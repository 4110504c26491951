package wire

import (
	"encoding/binary"
	"strings"
	"testing"
)

// TestDecodeRejectsMalformedDeltas pins the decode-time validation contract
// the apply path trusts: every malformed delta shape is a clean decode
// error (never a panic, never a silently accepted message). The encoder
// frames whatever struct it is given, so each case round-trips bytes built
// by Encode itself.
func TestDecodeRejectsMalformedDeltas(t *testing.T) {
	frame := func(d DeltaPage) []byte {
		return Encode(Envelope{ReqID: 1, From: 1, To: 2},
			&MultiPushReq{Objs: []ObjPayload{{Obj: 9, Deltas: []DeltaPage{d}}}})
	}
	cases := []struct {
		name string
		d    DeltaPage
		want string
	}{
		{"overlapping runs",
			DeltaPage{Base: 1, Version: 2, Runs: []Span{{Off: 0, Len: 8}, {Off: 4, Len: 4}},
				Data: make([]byte, 12)}, "overlapping"},
		{"unsorted runs",
			DeltaPage{Base: 1, Version: 2, Runs: []Span{{Off: 16, Len: 2}, {Off: 0, Len: 2}},
				Data: make([]byte, 4)}, "overlapping"},
		{"out-of-bounds offset",
			DeltaPage{Base: 1, Version: 2, Runs: []Span{{Off: 1<<24 - 1, Len: 2}},
				Data: make([]byte, 2)}, "out of bounds"},
		{"empty run",
			DeltaPage{Base: 1, Version: 2, Runs: []Span{{Off: 4, Len: 0}}}, "empty"},
		{"version gap equal",
			DeltaPage{Base: 3, Version: 3, Runs: []Span{{Off: 0, Len: 1}},
				Data: []byte{1}}, "version gap"},
		{"version gap backwards",
			DeltaPage{Base: 4, Version: 2, Runs: []Span{{Off: 0, Len: 1}},
				Data: []byte{1}}, "version gap"},
		{"runs under-cover payload",
			DeltaPage{Base: 1, Version: 2, Runs: []Span{{Off: 0, Len: 2}},
				Data: []byte{1, 2, 3}}, "runs cover"},
		{"runs over-cover payload",
			DeltaPage{Base: 1, Version: 2, Runs: []Span{{Off: 0, Len: 4}},
				Data: []byte{1}}, "runs cover"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Decode(frame(tc.d))
			if err == nil {
				t.Fatalf("malformed delta decoded cleanly: %+v", tc.d)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestDecodeRejectsFlaggedEmptySections pins the bit-31 framing rule: a
// collection count with the optional-section flag set but an empty section
// behind it is an encoding no writer produces, so the decoder rejects it
// rather than aliasing it with the flag-free (seed-identical) form.
func TestDecodeRejectsFlaggedEmptySections(t *testing.T) {
	t.Run("push delta section", func(t *testing.T) {
		// MultiPushReq body: reqID u64, objCount u32, obj i64,
		// flagged page count u32, then (flag set) delta count u32.
		le := binary.LittleEndian
		body := le.AppendUint64(nil, 7)
		body = le.AppendUint32(body, 1)
		body = le.AppendUint64(body, 9)
		body = le.AppendUint32(body, 0|sectionFlag) // zero pages, delta section follows
		body = le.AppendUint32(body, 0)             // ... but it is empty
		buf := Encode(Envelope{ReqID: 1, From: 1, To: 2}, &MultiPushReq{})
		buf = append(buf[:HeaderSize], body...)
		buf = fixBodyLen(buf)
		if _, _, err := Decode(buf); err == nil {
			t.Fatal("delta flag on an empty section decoded cleanly")
		}
	})
	t.Run("fetch base section", func(t *testing.T) {
		// MultiFetchReq body: reqID u64, demand u8, objCount u32, obj i64,
		// flagged page count u32, pages, then (flag set) bases — absent.
		le := binary.LittleEndian
		body := le.AppendUint64(nil, 0)
		body = append(body, 0)
		body = le.AppendUint32(body, 1)
		body = le.AppendUint64(body, 3)
		body = le.AppendUint32(body, 1|sectionFlag)
		body = le.AppendUint32(body, 0) // page 0
		// Bases section missing entirely: decoder must run out of bytes.
		buf := Encode(Envelope{ReqID: 1, From: 1, To: 2}, &MultiFetchReq{})
		buf = append(buf[:HeaderSize], body...)
		buf = fixBodyLen(buf)
		if _, _, err := Decode(buf); err == nil {
			t.Fatal("base flag with a missing section decoded cleanly")
		}
	})
}

// fixBodyLen restamps the header's body-length field after a test spliced
// in a hand-built body.
func fixBodyLen(buf []byte) []byte {
	binary.LittleEndian.PutUint32(buf[17:], uint32(len(buf)-HeaderSize))
	return buf
}

// TestClassifyDeltaFramingExact pins the stats attribution contract on real
// encodings: for a batched response mixing full pages and deltas, each
// object's recorded payload+overhead equals its exact on-wire section size,
// and what is left over is precisely the shared framing (header plus the
// top-level object count). This is what keeps the paper's per-object byte
// counts exact now that delta run lists make section framing vary.
func TestClassifyDeltaFramingExact(t *testing.T) {
	m := &MultiFetchResp{Objs: []ObjPayload{
		{Obj: 3, Pages: []PagePayload{
			{Page: 0, Version: 4, Data: make([]byte, 96)},
			{Page: 2, Version: 4, Data: make([]byte, 96)}}},
		{Obj: 5, Deltas: []DeltaPage{{Page: 1, Base: 7, Version: 8,
			Runs: []Span{{Off: 0, Len: 3}, {Off: 40, Len: 5}},
			Data: make([]byte, 8)}}},
		{Obj: 9,
			Pages: []PagePayload{{Page: 0, Version: 2, Data: make([]byte, 96)}},
			Deltas: []DeltaPage{{Page: 1, Base: 1, Version: 2,
				Runs: []Span{{Off: 12, Len: 4}}, Data: make([]byte, 4)}}},
	}}
	rec := Classify(m)
	if len(rec.Objs) != 3 || len(rec.Payloads) != 3 || len(rec.Overheads) != 3 {
		t.Fatalf("classify shape: %+v", rec)
	}
	wantPayloads := []int{192, 8, 100}
	sharedWant := HeaderSize + 4 // envelope + object count
	shared := rec.Bytes
	for i, o := range m.Objs {
		if rec.Payloads[i] != wantPayloads[i] {
			t.Errorf("object %d payload = %d, want %d", o.Obj, rec.Payloads[i], wantPayloads[i])
		}
		size := len(Encode(Envelope{}, &MultiFetchResp{Objs: []ObjPayload{o}})) - HeaderSize - 4
		if got := rec.Payloads[i] + rec.Overheads[i]; got != size {
			t.Errorf("object %d payload+overhead = %d, section is %d B", o.Obj, got, size)
		}
		shared -= size
	}
	if shared != sharedWant {
		t.Errorf("residual shared bytes = %d, want %d", shared, sharedWant)
	}
	if rec.Bytes != Size(m) || rec.Bytes != len(Encode(Envelope{From: 1, To: 2}, m)) {
		t.Errorf("classified size %d disagrees with encoding", rec.Bytes)
	}
	if rec.Payload != 300 {
		t.Errorf("total payload = %d, want 300", rec.Payload)
	}
}

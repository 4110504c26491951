package wire

import (
	"bytes"
	"testing"

	"lotec/internal/ids"
)

// Steady-state allocation gates over the data plane's pooled frame path and
// codec. testing.AllocsPerRun averages over enough iterations that pool
// misses on the first pass amortize to zero; any real per-op allocation
// shows up as ≥1. The gates are skipped in race builds, where ReleaseFrame
// poisons frames and the runtime's instrumentation shifts allocation
// behavior.

func allocFixture() (Envelope, *MultiFetchResp) {
	page := make([]byte, 256)
	for i := range page {
		page[i] = byte(i)
	}
	return Envelope{ReqID: 42, From: 1, To: 2}, &MultiFetchResp{Objs: []ObjPayload{{
		Obj:   ids.ObjectID(7),
		Pages: []PagePayload{{Page: 3, Version: 9, Data: page}},
	}}}
}

func TestAllocsFramePool(t *testing.T) {
	if framePoison {
		t.Skip("race build: poison pass changes the steady state under test")
	}
	if n := testing.AllocsPerRun(1000, func() {
		ReleaseFrame(GetFrame(512))
	}); n > 0 {
		t.Errorf("GetFrame/ReleaseFrame allocates %.2f/op, want 0", n)
	}
}

// TestFrameSizeClasses: a control frame never takes a bulk buffer — not
// from GetFrame, not from ReadFrame, which reads the length prefix into a
// small one — and a buffer goes back to the class of its capacity.
func TestFrameSizeClasses(t *testing.T) {
	for i := 0; i < 100; i++ {
		ReleaseFrame(GetFrame(64 << 10))
		if buf := GetFrame(100); cap(buf) != SmallFrame {
			t.Fatalf("GetFrame(100) after a bulk release has capacity %d, want %d", cap(buf), SmallFrame)
		}
		if buf := GetFrame(SmallFrame + 1); cap(buf) <= SmallFrame {
			t.Fatalf("GetFrame(%d) has capacity %d", SmallFrame+1, cap(buf))
		}
	}
	env := Envelope{ReqID: 1, From: 1, To: 2}
	for _, m := range []Msg{&ReleaseResp{}, &MultiFetchResp{Objs: []ObjPayload{{Obj: 7, Pages: []PagePayload{{Page: 1, Version: 2, Data: make([]byte, 4096)}}}}}} {
		frame := EncodeFrame(env, m)
		stream := append([]byte(nil), frame...)
		ReleaseFrame(frame)
		buf, err := ReadFrame(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		if small := len(stream) <= SmallFrame; small != (cap(buf) <= SmallFrame) {
			t.Errorf("%T: a %d-byte frame was read into a buffer of capacity %d", m, len(stream), cap(buf))
		}
		ReleaseFrame(buf)
	}
}

func TestAllocsEncodeFrame(t *testing.T) {
	if framePoison {
		t.Skip("race build: poison pass changes the steady state under test")
	}
	env, msg := allocFixture()
	if n := testing.AllocsPerRun(1000, func() {
		ReleaseFrame(EncodeFrame(env, msg))
	}); n > 0 {
		t.Errorf("EncodeFrame/ReleaseFrame allocates %.2f/op, want 0", n)
	}
}

func TestAllocsReadFrame(t *testing.T) {
	if framePoison {
		t.Skip("race build: poison pass changes the steady state under test")
	}
	env, msg := allocFixture()
	frame := EncodeFrame(env, msg)
	stream := append([]byte(nil), frame...)
	ReleaseFrame(frame)
	r := bytes.NewReader(stream)
	if n := testing.AllocsPerRun(1000, func() {
		r.Reset(stream)
		buf, err := ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		ReleaseFrame(buf)
	}); n > 0 {
		t.Errorf("ReadFrame/ReleaseFrame allocates %.2f/op, want 0", n)
	}
}

// TestAllocsDecodeView pins the per-message decode cost at exactly its three
// inherent escapes — the message struct, its per-object list and that
// object's payload-header slice. Page bytes alias the frame and must not
// contribute.
func TestAllocsDecodeView(t *testing.T) {
	if framePoison {
		t.Skip("race build: poison pass changes the steady state under test")
	}
	env, msg := allocFixture()
	encoded := Encode(env, msg)
	if n := testing.AllocsPerRun(1000, func() {
		if _, _, err := DecodeView(encoded); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("DecodeView allocates %.2f/op, want ≤ 3 (message struct + object list + payload headers)", n)
	}
}

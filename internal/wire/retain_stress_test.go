package wire

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"lotec/internal/ids"
)

// TestViewRetainUnderFrameReuse is the buffer-lifetime gauntlet for the
// pooled data plane: many goroutines concurrently encode pooled frames,
// decode views from them, Retain, release the frame back to the shared
// pool, and only then verify the retained payload. Frames recycle across
// goroutines immediately, so any Retain that left a field aliasing its
// frame surfaces as corrupted payload bytes — and in race builds the
// released frame is poisoned with 0xDB first, so even a rare interleaving
// that would read stale-but-identical bytes fails deterministically.
func TestViewRetainUnderFrameReuse(t *testing.T) {
	const iters = 2000
	workers := runtime.GOMAXPROCS(0) * 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tag byte) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{tag}, 128)
			env := Envelope{ReqID: uint64(tag), From: 1, To: 2}
			for i := 0; i < iters; i++ {
				msg := &MultiFetchResp{Objs: []ObjPayload{{
					Obj:   ids.ObjectID(tag),
					Pages: []PagePayload{{Page: 1, Version: uint64(i), Data: payload}},
				}}}
				frame := EncodeFrame(env, msg)
				_, m, err := DecodeView(frame[FrameHeadroom:])
				if err != nil {
					t.Error(err)
					return
				}
				resp := m.(*MultiFetchResp)
				Retain(resp)
				ReleaseFrame(frame)
				// The frame is back in the shared pool; another goroutine may
				// already be scribbling over it. The retained copy must hold.
				if got := resp.Objs[0].Pages[0].Data; !bytes.Equal(got, payload) {
					t.Errorf("worker %d iter %d: retained payload corrupted after frame release", tag, i)
					return
				}
			}
		}(byte(w + 1))
	}
	wg.Wait()
}

// TestReleasedFramePoisonedInRaceBuilds pins the debug aid itself: with
// the race detector on, a released frame must come back poisoned, so any
// view accidentally read after release yields recognizable garbage rather
// than silently-stale bytes.
func TestReleasedFramePoisonedInRaceBuilds(t *testing.T) {
	if !framePoison {
		t.Skip("poisoning is compiled in only with -race")
	}
	buf := GetFrame(64)
	for i := range buf {
		buf[i] = 0x11
	}
	ReleaseFrame(buf)
	// buf still points at the pooled array; every byte must now be poison.
	for i, b := range buf {
		if b != 0xDB {
			t.Fatalf("byte %d is %#x after release, want poison 0xDB", i, b)
		}
	}
}

package wire

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"lotec/internal/ids"
	"lotec/internal/pstore"
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
				got := resp.Objs[0].Pages[0].Data
				if !bytes.Equal(got, payload) {
					t.Errorf("worker %d iter %d: retained payload corrupted after frame release", tag, i)
					return
				}
				pstore.ReleasePage(got) // as the apply stage does once the page is installed
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

// TestRetainCopiesFetchedPagesIntoPoolPages: Retain copies the page and
// delta payloads of a fetch reply into page-pool buffers — page capacity
// even for a short delta, so the requester's release pools a whole page and
// a short buffer never displaces one.
func TestRetainCopiesFetchedPagesIntoPoolPages(t *testing.T) {
	page := bytes.Repeat([]byte{0x5A}, pstore.DefaultPageSize)
	delta := bytes.Repeat([]byte{0xA5}, 64)
	msg := &MultiFetchResp{Objs: []ObjPayload{{
		Obj:    7,
		Pages:  []PagePayload{{Page: 0, Version: 3, Data: page}},
		Deltas: []DeltaPage{{Page: 1, Base: 1, Version: 3, Runs: []Span{{Off: 8, Len: 64}}, Data: delta}},
	}}}
	frame := EncodeFrame(Envelope{ReqID: 1, From: 1, To: 2}, msg)
	_, m, err := DecodeView(frame[FrameHeadroom:])
	if err != nil {
		t.Fatal(err)
	}
	Retain(m)
	ReleaseFrame(frame)
	op := m.(*MultiFetchResp).Objs[0]
	for _, got := range []struct {
		name string
		data []byte
		want []byte
	}{{"page", op.Pages[0].Data, page}, {"delta", op.Deltas[0].Data, delta}} {
		if !bytes.Equal(got.data, got.want) {
			t.Errorf("retained %s payload differs from the one sent", got.name)
		}
		if cap(got.data) != pstore.DefaultPageSize {
			t.Errorf("retained %s payload has capacity %d, want a pool page (%d)", got.name, cap(got.data), pstore.DefaultPageSize)
		}
		pstore.ReleasePage(got.data)
	}
}

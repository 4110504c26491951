package directory

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/o2pl"
)

// mailbox routes deferred directory events (grants, deadlock aborts) to the
// goroutine whose family they target, the way each site's engine would.
type mailbox struct {
	mu    sync.Mutex
	boxes map[ids.FamilyID]chan gdo.Event
}

func (m *mailbox) register(f ids.FamilyID) chan gdo.Event {
	ch := make(chan gdo.Event, 8)
	m.mu.Lock()
	m.boxes[f] = ch
	m.mu.Unlock()
	return ch
}

func (m *mailbox) unregister(f ids.FamilyID) {
	m.mu.Lock()
	delete(m.boxes, f)
	m.mu.Unlock()
}

// dispatch delivers events. A missing box is a test failure: it means the
// directory produced an event for a family that already finished.
func (m *mailbox) dispatch(t *testing.T, events []gdo.Event) {
	for _, ev := range events {
		m.mu.Lock()
		ch := m.boxes[ev.Family]
		m.mu.Unlock()
		if ch == nil {
			t.Errorf("event %+v for unregistered family", ev)
			continue
		}
		ch <- ev
	}
}

// TestShardedStress hammers one directory from concurrent sites: each
// iteration a fresh family write-locks two objects in ascending ID order
// (structurally deadlock-free) and then commits. Run under -race. Every
// queued request must be granted or aborted within the timeout: a lost
// grant hangs its worker.
func TestShardedStress(t *testing.T) {
	const (
		nodes   = 4
		objects = 32
		workers = 8
		iters   = 150
	)
	s := gdo.New(nodes)
	for o := ids.ObjectID(1); o <= objects; o++ {
		if err := s.Register(o, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	mb := &mailbox{boxes: map[ids.FamilyID]chan gdo.Event{}}
	var nextFam, commits, aborts atomic.Uint64

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			site := ids.NodeID(w%nodes + 1)
			for i := 0; i < iters && !t.Failed(); i++ {
				// Family ID doubles as age: later families are younger.
				fam := ids.FamilyID(nextFam.Add(1))
				ch := mb.register(fam)

				a := ids.ObjectID(rng.Intn(objects) + 1)
				b := ids.ObjectID(rng.Intn(objects) + 1)
				for b == a {
					b = ids.ObjectID(rng.Intn(objects) + 1)
				}
				if b < a {
					a, b = b, a
				}

				var held []ids.ObjectID
				aborted := false
				for _, obj := range []ids.ObjectID{a, b} {
					ref := ids.TxRef{Tx: ids.TxID(fam), Node: site}
					res, evs, err := s.Acquire(obj, ref, fam, uint64(fam), site, o2pl.Write)
					if err != nil {
						t.Errorf("acquire %v by fam %v: %v", obj, fam, err)
						return
					}
					mb.dispatch(t, evs)
					switch res.Status {
					case gdo.GrantedNow:
						held = append(held, obj)
					case gdo.Queued:
						select {
						case ev := <-ch:
							switch {
							case ev.Kind == gdo.EventGrant && ev.Obj == obj:
								held = append(held, obj)
							case ev.Kind == gdo.EventDeadlockAbort:
								aborted = true
							default:
								t.Errorf("fam %v waiting on %v got %+v", fam, obj, ev)
								return
							}
						case <-time.After(20 * time.Second):
							t.Errorf("lost grant: fam %v never unblocked on %v", fam, obj)
							return
						}
					case gdo.DeadlockAbort:
						aborted = true
					}
					if aborted {
						break
					}
				}

				if len(held) > 0 {
					rels := make([]gdo.ObjectRelease, len(held))
					for j, o := range held {
						rels[j] = gdo.ObjectRelease{Obj: o}
					}
					evs, _, err := s.Release(fam, site, !aborted, rels)
					if err != nil {
						t.Errorf("release fam %v: %v", fam, err)
						return
					}
					mb.dispatch(t, evs)
				}
				mb.unregister(fam)
				if aborted {
					aborts.Add(1)
				} else {
					commits.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiescent: every lock handed back.
	for o := ids.ObjectID(1); o <= objects; o++ {
		if st, err := s.State(o); err != nil || st != gdo.Free {
			t.Errorf("after drain, %v state = %v, %v; want Free", o, st, err)
		}
	}
	if commits.Load() == 0 {
		t.Error("no family ever committed")
	}
	if aborts.Load() != 0 {
		t.Errorf("%d families aborted; ascending lock order cannot deadlock", aborts.Load())
	}
}

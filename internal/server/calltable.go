package server

import (
	"errors"
	"sync"
	"time"

	"lotec/internal/wire"
)

// errCallTimeout is await's verdict when no reply arrived in time; callers
// translate it into their own transport.ErrTimeout-wrapping error.
var errCallTimeout = errors.New("server: call timed out")

// callReply is what a waiting call receives: the peer's reply, or the
// reason its table failed.
type callReply struct {
	m   wire.Msg
	err error
}

// callSlot is the recyclable part of one outstanding call: the channel its
// reply arrives on and the timer bounding the wait. Slots cycle through
// slotPool, so a steady stream of calls allocates neither.
//
// A slot is idle — channel empty, timer stopped — whenever it is in the
// pool. The channel half of that is exact (see callTable.cancel). The timer
// half is best effort: with the Go ≤ 1.22 timer semantics this module
// builds under, a tick that was already on its way when Stop returned
// still lands in timer.C afterwards. await therefore trusts a tick only
// once the call's own deadline has passed.
type callSlot struct {
	ch    chan callReply // capacity 1: at most one delivery per registration
	timer *time.Timer
}

var slotPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &callSlot{ch: make(chan callReply, 1), timer: t}
}}

// callTable matches the replies read off one connection to the calls
// waiting for them. A reply returns on the connection its request left on,
// so each connection owns a table and callers on different connections
// never meet on a lock. Both TCPNet and Client use it.
//
// Every delivery happens under mu, and a call leaves the table under mu
// before its slot is recycled: a late reply finds no entry and is dropped,
// it can never land in a slot that has since been handed to another call.
type callTable struct {
	mu      sync.Mutex
	pending map[uint64]*callSlot // guarded by mu
	failed  error                // guarded by mu; set once, by fail
}

// register reserves a slot for call id. It fails once the table has.
func (t *callTable) register(id uint64) (*callSlot, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failed != nil {
		return nil, t.failed
	}
	if t.pending == nil {
		t.pending = make(map[uint64]*callSlot)
	}
	s := slotPool.Get().(*callSlot)
	t.pending[id] = s
	return s, nil
}

// deliver hands reply m to call id; a reply nobody waits for (the call
// timed out, or never existed) is dropped.
func (t *callTable) deliver(id uint64, m wire.Msg) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.pending[id]; ok {
		delete(t.pending, id)
		s.put(callReply{m: m})
	}
}

// fail ends every pending call with err and refuses new ones. The first
// failure sticks; later ones are ignored.
func (t *callTable) fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failed != nil {
		return
	}
	t.failed = err
	for id, s := range t.pending {
		delete(t.pending, id)
		s.put(callReply{err: err})
	}
}

// put completes the slot's call. Called under the table lock with the slot
// just removed from pending, so the channel is empty and the send cannot
// block; the default arm keeps a broken invariant from wedging the table.
func (s *callSlot) put(r callReply) {
	select {
	case s.ch <- r:
	default:
	}
}

// await blocks until call id's reply or failure arrives, for at most
// timeout, and recycles the slot. The call has left the table when it
// returns.
func (t *callTable) await(id uint64, s *callSlot, timeout time.Duration) (wire.Msg, error) {
	deadline := time.Now().Add(timeout)
	s.timer.Reset(timeout)
	for {
		select {
		case r := <-s.ch:
			s.recycle()
			return r.m, r.err
		case <-s.timer.C:
			if time.Now().Before(deadline) {
				continue // a tick left over from the slot's previous call
			}
			t.cancel(id, s)
			return nil, errCallTimeout
		}
	}
}

// cancel withdraws call id — it timed out, or its request was never sent —
// and recycles the slot.
func (t *callTable) cancel(id uint64, s *callSlot) {
	t.mu.Lock()
	_, pending := t.pending[id]
	delete(t.pending, id)
	t.mu.Unlock()
	if !pending {
		// A delivery won the race. It was made under mu, so it is already
		// in the channel; take it out before the slot serves another call.
		select {
		case <-s.ch:
		default:
		}
	}
	s.recycle()
}

// recycle returns an idle slot — its channel is empty — to the pool.
func (s *callSlot) recycle() {
	s.timer.Stop()
	slotPool.Put(s)
}

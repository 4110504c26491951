package server

import (
	"net"
	"sync"
	"time"
)

// writeTimeout bounds how long a write may stall, so a peer that has stopped
// draining its socket (full buffers, half-open connection) cannot hang a
// transaction forever — the write fails, the connection is shut and the
// calls on it surface a retryable error.
const writeTimeout = 10 * time.Second

// deadlineRefresh is how often, at most, a connection's write deadline is
// moved. The deadline is set writeTimeout+deadlineRefresh ahead, so a write
// that begins at any point before the next refresh still has writeTimeout
// to finish, and a stalled one fails inside writeTimeout+deadlineRefresh.
// Setting it per frame was a timer operation per frame.
const deadlineRefresh = time.Second

const (
	// smallFrame is the largest frame that may be left in a connection's
	// pending buffer for another goroutine to write. Control messages are
	// under it, page-carrying replies far over: those are never copied,
	// which is also what keeps the pending buffer from growing to their
	// size.
	smallFrame = 512
	// pendingCap bounds the bytes queued behind the goroutine that is
	// writing: the per-connection send queue. A sender that would exceed
	// it waits for the socket instead.
	pendingCap = 16 << 10
	// pendingKeep is the most capacity a buffer keeps once written out.
	pendingKeep = 4 << 10
)

// connWriter is the write half of a connection. Frames leave in the order
// writeFrame took them (the order of acquiring mu), each whole: at any time
// at most one goroutine — the flusher — is writing to the socket, and
// everything queued meanwhile goes out, in order, before the next flusher's
// own frame.
//
// A goroutine that finds the connection idle becomes the flusher: it writes
// its own frame from the caller's buffer and then whatever was queued while
// it was inside the kernel, until nothing is. A small frame that finds a
// flusher at work (or the connection corked) is copied to the pending buffer
// and its sender returns at once, so frames that meet on a busy connection
// share a write(2). Anything else — a bulk frame, a small one the pending
// buffer has no room for — waits for the socket and becomes the next
// flusher.
type connWriter struct {
	c net.Conn
	// shut ends the connection after a failed write (tcpConn.shut).
	shut func(cause error)
	// timeout is writeTimeout; a field so that a test can shorten its own
	// connection's.
	timeout time.Duration

	mu       sync.Mutex
	idle     sync.Cond // L is &mu; signalled when flushing clears or err is set
	flushing bool      // guarded by mu; a goroutine owns the socket
	corked   bool      // guarded by mu; the read loop has more replies coming
	pending  []byte    // guarded by mu; whole frames queued for the flusher
	spare    []byte    // guarded by mu; the emptied buffer pending swaps with
	err      error     // guarded by mu; the write failure that shut the connection
	frames   uint64    // guarded by mu; frames accepted
	writes   uint64    // guarded by mu; writes issued

	// Flusher only: handed from one flusher to the next under mu.
	deadlineAt time.Time   // when the write deadline was last moved
	vec        net.Buffers // the writev argument; kept here so that it is not allocated per bulk frame
	vecArr     [2][]byte   // vec's backing array
}

func (w *connWriter) init(c net.Conn, shut func(error)) {
	w.c, w.shut, w.timeout = c, shut, writeTimeout
	w.idle.L = &w.mu
}

// writeFrame sends one transport-ready frame (length prefix already written
// into frame[:wire.FrameHeadroom], as wire.EncodeFrame builds it). The
// caller may reuse frame when it returns. A nil return means the frame was
// written or queued; a queued frame's sender learns nothing of a later
// write failure here — the failure shuts the connection, which fails the
// calls pending on it.
func (w *connWriter) writeFrame(frame []byte) error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if (w.flushing || w.corked) && len(frame) <= smallFrame && len(w.pending)+len(frame) <= pendingCap {
		w.pending = append(w.pending, frame...)
		w.frames++
		w.mu.Unlock()
		return nil
	}
	for w.flushing && w.err == nil {
		w.idle.Wait()
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.frames++
	return w.flushLocked(frame)
}

// cork holds small frames back until uncork: the read loop has found
// another complete request in its buffer, so another reply is about to
// follow this one.
func (w *connWriter) cork() {
	w.mu.Lock()
	w.corked = true
	w.mu.Unlock()
}

// uncork sends what was held back.
func (w *connWriter) uncork() {
	w.mu.Lock()
	w.corked = false
	if w.flushing || len(w.pending) == 0 {
		w.mu.Unlock() // nothing held back, or the flusher at work takes it along
		return
	}
	_ = w.flushLocked(nil) // a failure has shut the connection; nobody here to tell
}

// flushLocked makes the caller the flusher: it writes pending, then frame
// (nil for none), then whatever was queued meanwhile, and releases the
// socket once pending is empty. Called with mu held and nobody flushing;
// returns with mu released. The error is that of the write carrying frame:
// later writes carry other senders' frames.
func (w *connWriter) flushLocked(frame []byte) error {
	w.flushing = true
	var own error
	for first := true; ; first = false {
		// Take what is queued and leave the other buffer to queue into. With
		// nothing queued the buffer stays where it is: a connection that
		// never queues during the write of a queue never needs a second.
		var queued []byte
		if len(w.pending) > 0 {
			queued = w.pending
			w.pending, w.spare = w.spare, nil
		}
		w.writes++
		w.mu.Unlock()

		queued, err := w.writeOut(queued, frame)
		frame = nil

		w.mu.Lock()
		if first {
			own = err
		}
		if err != nil {
			w.err = err
			w.pending, w.spare = nil, nil
			w.flushing = false
			w.idle.Broadcast()
			w.mu.Unlock()
			w.shut(err)
			return own
		}
		if queued != nil && cap(queued) <= pendingKeep {
			w.spare = queued[:0]
		}
		if len(w.pending) == 0 {
			w.flushing = false
			w.idle.Signal()
			w.mu.Unlock()
			return own
		}
	}
}

// writeOut writes queued and then frame in one system call, and returns
// queued (possibly grown) for reuse. Only the flusher calls it.
func (w *connWriter) writeOut(queued, frame []byte) ([]byte, error) {
	if now := time.Now(); now.Sub(w.deadlineAt) >= deadlineRefresh {
		if err := w.c.SetWriteDeadline(now.Add(w.timeout + deadlineRefresh)); err != nil {
			return queued, err
		}
		w.deadlineAt = now
	}
	switch {
	case len(queued) == 0:
		_, err := w.c.Write(frame)
		return queued, err
	case len(frame) <= smallFrame:
		queued = append(queued, frame...)
		_, err := w.c.Write(queued)
		return queued, err
	default:
		// A bulk frame goes out from its own buffer, behind the queued
		// frames, by writev.
		w.vecArr = [2][]byte{queued, frame}
		w.vec = w.vecArr[:]
		_, err := w.vec.WriteTo(w.c)
		w.vecArr = [2][]byte{}
		return queued, err
	}
}

// counts reports the frames taken and the writes issued so far.
func (w *connWriter) counts() (frames, writes uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.frames, w.writes
}

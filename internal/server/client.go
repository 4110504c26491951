package server

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"lotec/internal/ids"
	"lotec/internal/transport"
	"lotec/internal/wire"
)

// runTimeout bounds how long a client waits for a transaction's result. A
// node that dies mid-transaction no longer hangs the caller forever; the
// error wraps transport.ErrTimeout so callers can classify it as
// retryable. Generous because a RunReq executes an entire (possibly
// deadlock-retried) root transaction.
const runTimeout = 2 * time.Minute

// Client submits root transactions to a LOTEC node over TCP. It is safe
// for concurrent use; concurrent Run calls are multiplexed on one
// connection.
type Client struct {
	node  ids.NodeID
	conn  *tcpConn
	reqID atomic.Uint64
}

// ClientNodeBase offsets client identities above any real node ID (must
// match the transport's clientIDBase).
const ClientNodeBase = 1 << 20

var errClientClosed = errors.New("client: closed")

// Dial connects to the node serving at addr.
func Dial(addr string, node ids.NodeID) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w (%v)", addr, transport.ErrUnreachable, err)
	}
	c := &Client{node: node, conn: newTCPConn(conn)}
	go func() { c.conn.shut(c.conn.readFrames(nil)) }()
	return c, nil
}

// Close shuts the client down; outstanding Runs fail.
func (c *Client) Close() error {
	c.conn.calls.fail(errClientClosed)
	return c.conn.c.Close()
}

// Run executes method on obj as a root transaction at the connected node
// and returns the body's result.
func (c *Client) Run(obj ids.ObjectID, method string, arg []byte) ([]byte, error) {
	id := c.reqID.Add(1)
	slot, err := c.conn.calls.register(id)
	if err != nil {
		return nil, err
	}
	// The pooled frame carries the length prefix in its headroom, so the
	// request needs no prepend copy; concurrent Runs may share a write.
	frame := wire.EncodeFrame(wire.Envelope{
		ReqID: id,
		From:  ids.NodeID(ClientNodeBase),
		To:    c.node,
	}, &wire.RunReq{Obj: obj, Method: method, Arg: arg})
	err = c.conn.w.writeFrame(frame)
	wire.ReleaseFrame(frame)
	if err != nil {
		c.conn.calls.cancel(id, slot)
		return nil, fmt.Errorf("client: send: %w (%v)", transport.ErrUnreachable, err)
	}
	// RunReq is NOT idempotent (re-running a committed transaction would
	// apply its effects twice), so a timeout surfaces as an error for the
	// caller to handle rather than triggering a transparent retry.
	reply, err := c.conn.calls.await(id, slot, runTimeout)
	if err == errCallTimeout {
		return nil, fmt.Errorf("client: run on %v: %w", c.node, transport.ErrTimeout)
	}
	if err != nil {
		return nil, err
	}
	switch resp := reply.(type) {
	case *wire.RunResp:
		if resp.ErrMsg != "" {
			return nil, fmt.Errorf("client: transaction failed: %s", resp.ErrMsg)
		}
		return resp.Result, nil
	case *wire.ErrResp:
		return nil, fmt.Errorf("client: transaction failed: %s", resp.Msg)
	default:
		return nil, fmt.Errorf("client: unexpected reply %T", reply)
	}
}

package lotec

import (
	"fmt"
	"time"

	"lotec/internal/sim"
)

// Options configures an in-process cluster. The zero value gives 8 nodes,
// 4 KiB pages, the LOTEC protocol, strict (conservative-compiler) access
// checking, and a fast-Ethernet network model.
type Options struct {
	// Nodes is the number of simulated sites.
	Nodes int
	// PageSize in bytes.
	PageSize int
	// Protocol is the default consistency protocol (COTEC, OTEC, LOTEC or
	// RC).
	Protocol Protocol
	// ProtocolPerClass overrides the protocol for specific classes — the
	// paper's §6 per-class consistency extension.
	ProtocolPerClass map[ClassID]Protocol
	// Net is the simulated network cost model.
	Net NetParams
	// Lenient allows method bodies to access attributes outside their
	// declared sets, satisfied by demand fetches (models imperfect
	// prediction); the default is the paper's strict conservative mode.
	Lenient bool
	// MaxRetries bounds automatic deadlock retries per transaction.
	MaxRetries int
	// DeltaOff disables sub-page delta transfers: fetches and pushes move
	// full pages only, byte-identical to the pre-delta data plane. The
	// default (false) lets version-tracking protocols ship just the bytes
	// written since the requester's resident version.
	DeltaOff bool
}

// Cluster is an in-process LOTEC deployment: a set of simulated sites over
// a deterministic virtual network, sharing a GDO. It runs real protocol
// code — the same engine the TCP deployment uses — with exactly
// reproducible scheduling, which makes it equally suited to application
// development and to protocol experiments.
//
// A Cluster is not safe for concurrent use; drive it from one goroutine.
type Cluster struct {
	inner *sim.Cluster
}

// Result is one finished root transaction.
type Result struct {
	// Node is the site the transaction ran at.
	Node NodeID
	// Obj and Method identify the invocation.
	Obj    ObjectID
	Method string
	// Out is the value the body passed to Ctx.SetResult.
	Out []byte
	// Err is the failure, if the transaction aborted.
	Err error
}

// NewCluster builds a cluster.
func NewCluster(opts Options) (*Cluster, error) {
	inner, err := sim.NewCluster(sim.Config{
		Nodes:             opts.Nodes,
		PageSize:          opts.PageSize,
		Protocol:          opts.Protocol,
		ProtocolOverrides: opts.ProtocolPerClass,
		Net:               opts.Net,
		Lenient:           opts.Lenient,
		MaxRetries:        opts.MaxRetries,
		DeltaOff:          opts.DeltaOff,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner}, nil
}

// AddClass registers a class cluster-wide and computes its page layout.
// Classes must be added before objects of them are created.
func (c *Cluster) AddClass(cls *Class) error { return c.inner.AddClass(cls) }

// MustAddClass is AddClass that panics on error (setup-time convenience).
func (c *Cluster) MustAddClass(cls *Class) {
	if err := c.AddClass(cls); err != nil {
		panic(fmt.Sprintf("lotec: add class: %v", err))
	}
}

// OnMethod registers the Go body of cls.method on every node.
func (c *Cluster) OnMethod(cls *Class, method string, fn MethodFunc) error {
	return c.inner.RegisterBody(cls, method, fn)
}

// MustOnMethod is OnMethod that panics on error (setup-time convenience).
func (c *Cluster) MustOnMethod(cls *Class, method string, fn MethodFunc) {
	if err := c.OnMethod(cls, method, fn); err != nil {
		panic(fmt.Sprintf("lotec: register body: %v", err))
	}
}

// NewObject creates an object of the class, with its pages initially
// resident (zeroed) at the owner node.
func (c *Cluster) NewObject(class ClassID, owner NodeID) (ObjectID, error) {
	return c.inner.CreateObject(class, owner)
}

// Exec runs one root transaction to completion: method on obj at node.
// Deadlock victims are retried automatically. Exec drives the virtual clock
// until the cluster is quiescent again.
func (c *Cluster) Exec(node NodeID, obj ObjectID, method string, arg []byte) ([]byte, error) {
	before := len(c.inner.Results())
	if err := c.inner.Submit(0, node, obj, method, arg); err != nil {
		return nil, err
	}
	if err := c.inner.Run(); err != nil {
		return nil, err
	}
	rs := c.inner.Results()
	if len(rs) <= before {
		return nil, fmt.Errorf("lotec: transaction produced no result")
	}
	r := rs[len(rs)-1]
	return r.Out, r.Err
}

// Submit schedules a root transaction to start at the given virtual time
// offset without running the cluster; combine with Run to execute many
// concurrent transactions.
func (c *Cluster) Submit(at time.Duration, node NodeID, obj ObjectID, method string, arg []byte) error {
	return c.inner.Submit(at, node, obj, method, arg)
}

// Run drives all submitted transactions to completion.
func (c *Cluster) Run() error { return c.inner.Run() }

// Results returns every finished transaction in completion order.
func (c *Cluster) Results() []Result {
	rs := c.inner.Results()
	out := make([]Result, 0, len(rs))
	for _, r := range rs {
		out = append(out, Result{
			Node: r.Node, Obj: r.Obj, Method: r.Method, Out: r.Out, Err: r.Err,
		})
	}
	return out
}

// Counters returns the run's operation counters (§5.1 metrics).
func (c *Cluster) Counters() Counters { return c.inner.Recorder().Counters() }

// ObjectStats returns the consistency traffic attributed to one object —
// the per-object quantity Figures 2–5 of the paper plot.
func (c *Cluster) ObjectStats(obj ObjectID) Stats { return c.inner.Recorder().Object(obj) }

// TotalStats returns the whole run's traffic.
func (c *Cluster) TotalStats() Stats { return c.inner.Recorder().Totals() }

// TransferTime prices the consistency messages of obj under a network
// configuration (the Figures 6–8 metric).
func (c *Cluster) TransferTime(obj ObjectID, p NetParams) time.Duration {
	return c.inner.Recorder().TransferTime(obj, p)
}

// ObjectBytes returns the authoritative current contents of obj, assembled
// from the newest copy of each page.
func (c *Cluster) ObjectBytes(obj ObjectID) ([]byte, error) {
	return c.inner.ObjectBytes(obj)
}

// Protocol returns the cluster's consistency protocol.
func (c *Cluster) Protocol() Protocol { return c.inner.Protocol() }

// Now returns the cluster's virtual time.
func (c *Cluster) Now() time.Duration { return c.inner.Now() }

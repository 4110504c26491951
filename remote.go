package lotec

import (
	"fmt"

	"lotec/internal/core"
	"lotec/internal/fault"
	"lotec/internal/ids"
	"lotec/internal/server"
	"lotec/internal/transport"
)

// Distributed deployment: the same engine the simulated Cluster runs, over
// real TCP. A deployment is one GDO directory service plus N node (site)
// processes; clients connect to any node and submit root transactions.

// Topology lays out a TCP deployment: node i+1 serves at NodeAddrs[i], and
// the GDO directory serves at GDOAddr.
type Topology = server.Topology

// GDO is a running directory service.
type GDO struct{ inner *server.GDOServer }

// StartGDO starts the directory service of a deployment.
func StartGDO(topo Topology) (*GDO, error) {
	return StartGDOWith(GDOOptions{Topology: topo})
}

// GDOOptions configures the directory service.
type GDOOptions struct {
	// Topology is the shared deployment layout.
	Topology Topology
	// FaultPlan, when non-empty, injects deterministic faults into the
	// directory's outbound traffic (a preset name like "drop" or a clause
	// list like "drop(p=0.1);delay(p=0.2,d=1ms)" — see the fault package).
	FaultPlan string
	// FaultSeed drives the plan's random draws.
	FaultSeed uint64
}

// StartGDOWith starts the directory service with explicit options.
func StartGDOWith(opts GDOOptions) (*GDO, error) {
	g := server.NewGDOServer(opts.Topology)
	if opts.FaultPlan != "" {
		plan, err := fault.Parse(opts.FaultPlan, opts.FaultSeed)
		if err != nil {
			return nil, fmt.Errorf("lotec: fault plan: %w", err)
		}
		g.InstallFaults(*plan, transport.RetryPolicy{})
	}
	if err := g.Start(); err != nil {
		return nil, err
	}
	return &GDO{inner: g}, nil
}

// Addr returns the directory's bound address.
func (g *GDO) Addr() string { return g.inner.Addr() }

// Close stops the directory.
func (g *GDO) Close() error { return g.inner.Close() }

// NodeOptions configures one node of a TCP deployment.
type NodeOptions struct {
	// Topology is the shared deployment layout.
	Topology Topology
	// Self is this node's 1-based ID.
	Self NodeID
	// Protocol must match cluster-wide (default LOTEC).
	Protocol Protocol
	// PageSize must match cluster-wide (default 4096).
	PageSize int
	// Lenient disables strict declared-access checking.
	Lenient bool
	// DeltaOff disables sub-page delta transfers; must match cluster-wide.
	DeltaOff bool
	// FaultPlan, when non-empty, injects deterministic faults into this
	// node's outbound traffic and enables the RPC timeout/retry layer (a
	// preset name like "drop" or a clause list like
	// "drop(p=0.1);delay(p=0.2,d=1ms)" — see the fault package).
	FaultPlan string
	// FaultSeed drives the plan's random draws.
	FaultSeed uint64
}

// Node is a running LOTEC site.
type Node struct{ inner *server.NodeServer }

// NewNode assembles a node; add classes, bodies and objects, then Start.
func NewNode(opts NodeOptions) (*Node, error) {
	var p core.Protocol
	if opts.Protocol != nil {
		p = opts.Protocol
	}
	var plan *fault.Plan
	if opts.FaultPlan != "" {
		parsed, err := fault.Parse(opts.FaultPlan, opts.FaultSeed)
		if err != nil {
			return nil, fmt.Errorf("lotec: fault plan: %w", err)
		}
		plan = parsed
	}
	inner, err := server.NewNodeServer(server.NodeConfig{
		Topology: opts.Topology,
		Self:     opts.Self,
		Protocol: p,
		PageSize: opts.PageSize,
		Lenient:  opts.Lenient,
		DeltaOff: opts.DeltaOff,
		Faults:   plan,
	})
	if err != nil {
		return nil, err
	}
	return &Node{inner: inner}, nil
}

// AddClass registers a class at this node. Every node must register the
// same classes — the schema ships with the application binary.
func (n *Node) AddClass(cls *Class) error { return n.inner.AddClass(cls) }

// OnMethod registers a method body at this node.
func (n *Node) OnMethod(cls *Class, method string, fn MethodFunc) error {
	return n.inner.OnMethod(cls, method, fn)
}

// CreateObject registers an object. Call on every node with identical
// arguments, in any order; the owner node additionally registers it with
// the GDO, one-way. The owner's own roots always find the object there; a
// root at another node that reaches the GDO before the registration
// aborts and retries, as a deadlock victim does.
func (n *Node) CreateObject(obj ObjectID, class ClassID, owner NodeID) error {
	return n.inner.CreateObject(obj, class, owner)
}

// Start begins serving protocol traffic and client transactions.
func (n *Node) Start() error { return n.inner.Start() }

// Addr returns the node's bound address.
func (n *Node) Addr() string { return n.inner.Addr() }

// Close stops the node.
func (n *Node) Close() error { return n.inner.Close() }

// Run executes a root transaction at this node (in-process entry point;
// remote clients use Dial).
func (n *Node) Run(obj ObjectID, method string, arg []byte) ([]byte, error) {
	return n.inner.Run(obj, method, arg)
}

// Client submits transactions to a remote node.
type Client struct{ inner *server.Client }

// Dial connects to the node with the given ID at addr.
func Dial(addr string, node NodeID) (*Client, error) {
	c, err := server.Dial(addr, ids.NodeID(node))
	if err != nil {
		return nil, err
	}
	return &Client{inner: c}, nil
}

// Run executes method on obj as a root transaction at the connected node.
func (c *Client) Run(obj ObjectID, method string, arg []byte) ([]byte, error) {
	return c.inner.Run(obj, method, arg)
}

// Close disconnects the client.
func (c *Client) Close() error { return c.inner.Close() }

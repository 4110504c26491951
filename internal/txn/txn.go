// Package txn implements Moss-style closed nested transaction trees extended
// to nested *object* transactions (§3 of the paper): every method invocation
// is a [sub-]transaction, user invocations create root transactions, and the
// 1:1 mapping between invocations and transactions induces the transaction
// family tree. Unlike Moss's model, transactions at any level may access
// data (§3.3).
//
// This package is pure bookkeeping: tree structure, status transitions and
// ancestry queries. Lock disposition (inheritance, retention) lives in
// package o2pl, undo logs in package pstore, and both are driven by the node
// engine using the events this package validates.
package txn

import (
	"errors"
	"fmt"
	"sync"

	"lotec/internal/ids"
)

// Status is the lifecycle state of a [sub-]transaction.
type Status int

// Transaction lifecycle states.
const (
	// Active transactions are executing (or waiting on a lock).
	Active Status = iota + 1
	// PreCommitted sub-transactions have committed relative to their
	// family; their effects become permanent only when the root commits
	// (§3.2 "a process we will refer to as pre-committing").
	PreCommitted
	// Committed is reached only by roots (and, transitively, by their
	// pre-committed descendants once the root commits).
	Committed
	// Aborted transactions have been rolled back.
	Aborted
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case PreCommitted:
		return "pre-committed"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Lifecycle errors.
var (
	ErrNotActive       = errors.New("txn: transaction is not active")
	ErrActiveChildren  = errors.New("txn: transaction has active sub-transactions")
	ErrNotRoot         = errors.New("txn: operation requires a root transaction")
	ErrRootOp          = errors.New("txn: operation not valid on a root transaction")
	ErrCrossNodeChild  = errors.New("txn: sub-transaction must run at its family's node")
	ErrTooDeeplyNested = errors.New("txn: nesting depth limit exceeded")
)

// MaxDepth bounds transaction nesting; it exists to catch runaway recursive
// invocation loops in user code rather than to model any protocol limit.
const MaxDepth = 256

// Txn is one node in a transaction family tree. All mutation goes through
// the owning Manager; Txn fields are safe to read concurrently only after
// publication through Manager methods.
type Txn struct {
	id     ids.TxID
	parent *Txn
	root   *Txn
	node   ids.NodeID
	depth  int

	mu             sync.Mutex
	status         Status // guarded by mu
	activeChildren int    // guarded by mu
	children       []*Txn // guarded by mu
}

// ID returns the transaction's unique identifier.
func (t *Txn) ID() ids.TxID { return t.id }

// Parent returns the parent transaction, or nil for a root.
func (t *Txn) Parent() *Txn { return t.parent }

// Root returns the family's root transaction (itself, for a root).
func (t *Txn) Root() *Txn { return t.root }

// Family returns the family identifier: the root's TxID (§3.1).
func (t *Txn) Family() ids.FamilyID { return t.root.id }

// Node returns the site the transaction executes at. Whole families execute
// at a single site (§4.1).
func (t *Txn) Node() ids.NodeID { return t.node }

// Depth returns the nesting depth (0 for a root).
func (t *Txn) Depth() int { return t.depth }

// IsRoot reports whether t is a root transaction.
func (t *Txn) IsRoot() bool { return t.parent == nil }

// Ref returns the ⟨transaction, node⟩ pair used in GDO lists.
func (t *Txn) Ref() ids.TxRef { return ids.TxRef{Tx: t.id, Node: t.node} }

// Status returns the current lifecycle state.
func (t *Txn) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// String implements fmt.Stringer.
func (t *Txn) String() string {
	return fmt.Sprintf("%v@%v[fam %v, depth %d]", t.id, t.node, t.Family(), t.depth)
}

// IsAncestorOf reports whether t is a proper ancestor of u.
func (t *Txn) IsAncestorOf(u *Txn) bool {
	for p := u.parent; p != nil; p = p.parent {
		if p == t {
			return true
		}
	}
	return false
}

// SelfOrAncestorOf reports whether t == u or t is a proper ancestor of u.
func (t *Txn) SelfOrAncestorOf(u *Txn) bool {
	return t == u || t.IsAncestorOf(u)
}

// Manager creates transactions and validates their lifecycle transitions.
// It keeps no reference to the transactions it creates: a family tree is
// reachable only through the *Txn values its caller holds and is collected
// with them. A Manager is safe for concurrent use.
type Manager struct {
	gen ids.TxIDGenerator
}

// NewManager returns an empty Manager.
func NewManager() *Manager {
	return &Manager{}
}

// NewManagerAt returns a Manager issuing TxIDs above base, giving each node
// of a distributed deployment a disjoint TxID namespace.
func NewManagerAt(base uint64) *Manager {
	m := NewManager()
	m.gen.Seed(base)
	return m
}

// Begin creates a root transaction executing at node.
func (m *Manager) Begin(node ids.NodeID) *Txn {
	t := &Txn{
		id:     m.gen.Next(),
		node:   node,
		status: Active,
	}
	t.root = t
	return t
}

// BeginChild creates a sub-transaction of parent, executing at the same
// node (families are single-site, §4.1).
func (m *Manager) BeginChild(parent *Txn) (*Txn, error) {
	parent.mu.Lock()
	if parent.status != Active {
		defer parent.mu.Unlock()
		return nil, fmt.Errorf("%w: parent %v is %v", ErrNotActive, parent.id, parent.status)
	}
	if parent.depth+1 > MaxDepth {
		parent.mu.Unlock()
		return nil, fmt.Errorf("%w: depth %d", ErrTooDeeplyNested, parent.depth+1)
	}
	t := &Txn{
		id:     m.gen.Next(),
		parent: parent,
		root:   parent.root,
		node:   parent.node,
		depth:  parent.depth + 1,
		status: Active,
	}
	parent.children = append(parent.children, t)
	parent.activeChildren++
	parent.mu.Unlock()
	return t, nil
}

// finish transitions t out of Active and updates the parent's active count.
func (m *Manager) finish(t *Txn, to Status) error {
	t.mu.Lock()
	if t.status != Active {
		defer t.mu.Unlock()
		return fmt.Errorf("%w: %v is %v", ErrNotActive, t.id, t.status)
	}
	if t.activeChildren > 0 {
		defer t.mu.Unlock()
		return fmt.Errorf("%w: %v has %d", ErrActiveChildren, t.id, t.activeChildren)
	}
	t.status = to
	t.mu.Unlock()

	if t.parent != nil {
		t.parent.mu.Lock()
		t.parent.activeChildren--
		t.parent.mu.Unlock()
	}
	return nil
}

// PreCommit marks a sub-transaction pre-committed. Rule 3 of §4.1: a
// transaction cannot pre-commit until all its sub-transactions have
// finished. Lock inheritance is performed by the caller (the node engine)
// via the o2pl entry operations.
func (m *Manager) PreCommit(t *Txn) error {
	if t.IsRoot() {
		return fmt.Errorf("%w: %v", ErrRootOp, t.id)
	}
	return m.finish(t, PreCommitted)
}

// CommitRoot commits a root transaction, making the family's effects
// permanent (rule 5 of §4.1).
func (m *Manager) CommitRoot(t *Txn) error {
	if !t.IsRoot() {
		return fmt.Errorf("%w: %v", ErrNotRoot, t.id)
	}
	if err := m.finish(t, Committed); err != nil {
		return err
	}
	markSubtreeCommitted(t)
	return nil
}

// markSubtreeCommitted upgrades every pre-committed descendant to Committed.
func markSubtreeCommitted(t *Txn) {
	t.mu.Lock()
	children := append([]*Txn(nil), t.children...)
	t.mu.Unlock()
	for _, c := range children {
		c.mu.Lock()
		if c.status == PreCommitted {
			c.status = Committed
		}
		c.mu.Unlock()
		markSubtreeCommitted(c)
	}
}

// Abort marks any active transaction aborted (rule 4 of §4.1). UNDO and lock
// disposition are performed by the caller. Aborting a transaction with
// active children is an error: children finish (or are aborted) first,
// innermost-out, because invocation is synchronous.
func (m *Manager) Abort(t *Txn) error {
	return m.finish(t, Aborted)
}

// Children returns a snapshot of t's direct sub-transactions in creation
// order.
func (t *Txn) Children() []*Txn {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Txn(nil), t.children...)
}

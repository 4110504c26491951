// Package lotec is a Go implementation of LOTEC — Lazy Object
// Transactional Entry Consistency — the software-only DSM consistency
// protocol for nested object transactions described by Graham and Sui
// (PODC 1999), together with the protocols it is evaluated against (COTEC,
// OTEC, and a Release Consistency extension) and every substrate the paper
// depends on: Moss-style closed nested transactions, nested object
// two-phase locking with lock inheritance and retention, a global directory
// of objects (GDO) with page maps, paged object memory with shadow-page
// undo, conservative per-method access prediction, and a deterministic
// distributed-system simulator.
//
// # Programming model
//
// Applications declare object classes — attributes plus methods with
// conservative read/write attribute sets (the artifact the paper's compiler
// derives via attribute access analysis) — and register a Go body per
// method. Every method invocation runs as a [sub-]transaction: the runtime
// acquires the object's lock at entry and releases it per nested O2PL at
// exit, so consistency maintenance is fully automatic, exactly as §3.5 of
// the paper intends. Invoking another object's method from a body creates a
// closed nested sub-transaction whose abort rolls back only its own
// effects.
//
// # Quick start
//
//	cluster, _ := lotec.NewCluster(lotec.Options{Nodes: 4, Protocol: lotec.LOTEC})
//	account, _ := lotec.NewClass(1, "Account").
//		Attr("balance", 8).
//		Method(lotec.MethodSpec{Name: "deposit", Writes: []string{"balance"}}).
//		Build()
//	cluster.MustAddClass(account)
//	cluster.MustOnMethod(account, "deposit", func(ctx *lotec.Ctx) error {
//		cur, _ := ctx.Read("balance")
//		return ctx.Write("balance", add(cur, ctx.Arg()))
//	})
//	obj, _ := cluster.NewObject(account.ID, 1)
//	out, err := cluster.Exec(2, obj, "deposit", amount) // runs at node 2
//
// The same engine runs over TCP for real distribution: see StartGDO,
// StartNode and Dial.
package lotec

import (
	"lotec/internal/core"
	"lotec/internal/ids"
	"lotec/internal/netmodel"
	"lotec/internal/node"
	"lotec/internal/o2pl"
	"lotec/internal/schema"
	"lotec/internal/stats"
)

// Identifier types.
type (
	// NodeID identifies a site in the cluster (1-based).
	NodeID = ids.NodeID
	// ObjectID identifies a shared object.
	ObjectID = ids.ObjectID
	// ClassID identifies an object class.
	ClassID = ids.ClassID
)

// Schema types: classes are built with NewClass and declared methods carry
// the conservative access sets LOTEC's prediction consumes.
type (
	// Class is a built object class.
	Class = schema.Class
	// ClassBuilder assembles a Class.
	ClassBuilder = schema.ClassBuilder
	// MethodSpec declares one method and its conservative access sets.
	MethodSpec = schema.MethodSpec
)

// NewClass starts building a class with the given ID and name.
func NewClass(id ClassID, name string) *ClassBuilder {
	return schema.NewClassBuilder(id, name)
}

// Execution types.
type (
	// Ctx is a method body's handle on its sub-transaction.
	Ctx = node.Ctx
	// MethodFunc is a registered method body.
	MethodFunc = node.MethodFunc
	// InvokeSpec names one child invocation for Ctx.InvokeAll.
	InvokeSpec = node.InvokeSpec
	// InvokeResult is one parallel child's outcome.
	InvokeResult = node.InvokeResult
)

// Protocol selects a consistency protocol.
type Protocol = core.Protocol

// The protocols of the paper's evaluation plus the §6 RC extension.
var (
	// COTEC transfers every page of an object on acquisition (baseline).
	COTEC = core.COTEC
	// OTEC transfers only the pages updated since the acquirer's copies.
	OTEC = core.OTEC
	// LOTEC transfers only updated pages predicted to be needed — the
	// paper's contribution.
	LOTEC = core.LOTEC
	// RC eagerly pushes updates to all caching sites at commit.
	RC = core.RC
)

// ProtocolByName resolves "COTEC", "OTEC", "LOTEC" or "RC".
func ProtocolByName(name string) (Protocol, error) { return core.ByName(name) }

// Network modelling, for simulated clusters and trace pricing.
type (
	// NetParams is a bandwidth + per-message software cost configuration.
	NetParams = netmodel.Params
)

// The paper's three switched-Ethernet presets (Figures 6–8).
var (
	Ethernet10  = netmodel.Ethernet10
	Ethernet100 = netmodel.Ethernet100
	Gigabit     = netmodel.Gigabit
)

// Statistics types.
type (
	// Stats aggregates a run's consistency traffic.
	Stats = stats.ObjStats
	// Counters is the scalar operation counters (§5.1).
	Counters = stats.Counters
)

// Errors surfaced to applications.
var (
	// ErrRecursiveInvocation: a method (transitively) invoked a method on
	// an object whose lock an ancestor transaction holds; the paper
	// precludes mutually recursive invocations (§3.4).
	ErrRecursiveInvocation = o2pl.ErrRecursiveInvocation
	// ErrUndeclaredAccess: a body touched an attribute outside its declared
	// sets while the cluster runs in strict (conservative-compiler) mode.
	ErrUndeclaredAccess = node.ErrUndeclaredAccess
	// ErrDeadlockVictim: the transaction was aborted to break an
	// inter-family deadlock; Exec retries these automatically, so
	// applications only see it when retries are exhausted.
	ErrDeadlockVictim = node.ErrDeadlockVictim
	// ErrRetriesExhausted: a root was aborted too many times, by deadlock
	// resolution or by reaching the directory before an object's
	// registration; it wraps the last attempt's error.
	ErrRetriesExhausted = node.ErrRetriesExhausted
)

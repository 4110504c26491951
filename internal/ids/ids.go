// Package ids defines the identifier types shared by every LOTEC subsystem:
// node, object, page, class, method and transaction identifiers, plus the
// ⟨transaction, node⟩ reference pairs the paper's GDO entry stores in its
// holder and non-holder lists (Figure 1 of the paper).
package ids

import (
	"fmt"
	"sync/atomic"
)

// NodeID identifies a site (processor/node) in the distributed system.
// NodeID 0 is reserved to mean "no node"; real nodes start at 1.
type NodeID int32

// NoNode is the zero NodeID, meaning "no node" (e.g. an unmapped page).
const NoNode NodeID = 0

// String implements fmt.Stringer.
func (n NodeID) String() string {
	if n == NoNode {
		return "node(-)"
	}
	return fmt.Sprintf("node(%d)", int32(n))
}

// ObjectID identifies a shared object registered in the GDO.
type ObjectID int64

// String implements fmt.Stringer.
func (o ObjectID) String() string { return fmt.Sprintf("O%d", int64(o)) }

// ClassID identifies an object class (schema).
type ClassID int32

// MethodID identifies a method within a class.
type MethodID int32

// PageNum is the index of a page within an object (0-based).
type PageNum int32

// PageID globally identifies one page of one object. LOTEC is object-based:
// pages are addressed per object, never as raw memory addresses, which is
// what makes false sharing structurally impossible (§4.2 of the paper).
type PageID struct {
	Object ObjectID
	Page   PageNum
}

// String implements fmt.Stringer.
func (p PageID) String() string { return fmt.Sprintf("%v/p%d", p.Object, int32(p.Page)) }

// TxID identifies a single [sub-]transaction. TxIDs are unique across the
// whole system for the lifetime of a run.
type TxID uint64

// NoTx is the zero TxID, meaning "no transaction".
const NoTx TxID = 0

// String implements fmt.Stringer.
func (t TxID) String() string {
	if t == NoTx {
		return "tx(-)"
	}
	if IsSiteFamily(t) {
		return fmt.Sprintf("site(%d)", uint32(t))
	}
	return fmt.Sprintf("tx(%d)", uint64(t))
}

// FamilyID identifies a transaction family: the TxID of the root transaction.
// All descendants of one root share its FamilyID (§3.1 of the paper).
type FamilyID = TxID

// siteFamilyBit marks the reserved family IDs. Transaction IDs count up
// from a per-node base far below it (TxIDGenerator.Seed).
const siteFamilyBit = 1 << 63

// SiteFamily returns the reserved family ID under which the directory holds
// a lock for site n itself, between the roots that run there, rather than
// for one of its transaction families.
func SiteFamily(n NodeID) FamilyID { return FamilyID(siteFamilyBit | uint64(uint32(n))) }

// IsSiteFamily reports whether f is a SiteFamily ID.
func IsSiteFamily(f FamilyID) bool { return f&siteFamilyBit != 0 }

// TxRef is the ⟨transaction id, node id⟩ pair stored in GDO holder and
// non-holder lists (Figure 1 of the paper).
type TxRef struct {
	Tx   TxID
	Node NodeID
}

// String implements fmt.Stringer.
func (r TxRef) String() string { return fmt.Sprintf("<%v,%v>", r.Tx, r.Node) }

// TxIDGenerator hands out system-wide unique transaction identifiers.
// The zero value is ready to use; the first ID issued is 1 so that NoTx
// is never handed out.
type TxIDGenerator struct {
	last atomic.Uint64
}

// Next returns the next unused TxID.
func (g *TxIDGenerator) Next() TxID { return TxID(g.last.Add(1)) }

// Seed moves the generator to start issuing IDs above base. It is used to
// give each node of a distributed deployment a disjoint TxID namespace
// (e.g. base = nodeID << 40) and must be called before any Next.
func (g *TxIDGenerator) Seed(base uint64) { g.last.Store(base) }

// ObjectIDGenerator hands out unique object identifiers, starting at 0
// to match the paper's O0…On object naming in its figures.
type ObjectIDGenerator struct {
	next atomic.Int64
}

// Next returns the next unused ObjectID (0, 1, 2, …).
func (g *ObjectIDGenerator) Next() ObjectID { return ObjectID(g.next.Add(1) - 1) }

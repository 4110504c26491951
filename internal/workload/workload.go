// Package workload generates the transaction traffic every experiment in
// this repository runs on. It has two generators behind one output type:
//
//   - Generate (the legacy driver): the paper's §5 uniform random
//     nested-object-transaction workload, moved here verbatim from
//     internal/sim so its seeded RNG sequence — and therefore every
//     committed figure — stays byte-for-byte identical.
//
//   - Compile (the spec driver): a declarative, seed-pure production
//     workload model in the ServeGen style — heterogeneous client classes
//     with skewed per-client rates (Zipf/lognormal), Zipf hot-key object
//     selection, and open-loop seeded arrival processes (Poisson under
//     constant/diurnal/bursty rate envelopes) that multiplex millions of
//     logical clients onto N sites.
//
// Both produce a Workload: classes, objects, and a deterministic schedule
// of root transactions (RootSpec) that internal/sim executes on the
// virtual clock and the TCP runtime replays in real time. Running the
// same spec on both is what the calibrate loop (lotec-bench -calibrate)
// compares.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"lotec/internal/ids"
	"lotec/internal/schema"
)

// Config shapes the legacy randomly generated workload (§5: "a number of
// randomly generated nested object transactions in a simulated distributed
// system … expressly designed to induce high degrees of conflict in object
// access"). Its seeded RNG draw sequence is frozen: the uniform preset and
// every committed figure reproduce from it byte-for-byte.
type Config struct {
	// Seed makes the workload reproducible.
	Seed int64
	// Objects is the shared-object population size.
	Objects int
	// MinPages/MaxPages bound object sizes (the paper's "medium" objects
	// are 1–5 pages, "large" are 10–20).
	MinPages int
	MaxPages int
	// PageSize must match the cluster's (default 4096).
	PageSize int
	// Transactions is the number of root transactions.
	Transactions int
	// Nodes is the cluster size roots are load-balanced over.
	Nodes int
	// HotFraction of the objects receive HotWeight of the accesses; high
	// contention ≈ (0.25, 0.85), moderate ≈ (0.5, 0.5).
	HotFraction float64
	HotWeight   float64
	// MaxDepth bounds transaction nesting below the root.
	MaxDepth int
	// MaxFanout bounds sub-invocations per [sub-]transaction.
	MaxFanout int
	// WriteFraction is the probability an invocation picks an updating
	// method.
	WriteFraction float64
	// ArrivalSpacing is the mean spacing between root arrivals; small
	// values increase overlap and hence contention.
	ArrivalSpacing time.Duration
	// MispredictProb, when positive, makes method bodies additionally
	// write one undeclared segment with this probability — modelling
	// imperfect access prediction. Requires a Lenient cluster.
	MispredictProb float64
	// PredictionWiden widens every generated method's declared sets by
	// this many extra segments (ablation: how LOTEC degrades toward OTEC
	// as prediction gets more conservative).
	PredictionWiden int
	// AbortProb is the probability a generated [sub-]transaction fails
	// after performing its writes, exercising rollback at every nesting
	// level (failure injection; aborted subtrees are survived by parents
	// with probability ½, else propagated).
	AbortProb float64
	// WriteBytes, when positive, caps how many bytes each declared write
	// actually modifies (at the attribute's start) instead of rewriting the
	// whole attribute. Real update methods touch a few fields of a page-sized
	// object, which is what sub-page delta transfers exploit; 0 keeps the
	// historical whole-attribute writes (and their exact traces).
	WriteBytes int
	// DisorderProb is the probability an invocation ignores the canonical
	// ascending object-index order. The default (0) emits transactions
	// that acquire locks in a global order — the standard TP discipline
	// that makes deadlock structurally impossible; raise it to exercise
	// the deadlock detector (at the cost of abort/retry storms under high
	// contention).
	DisorderProb float64
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Objects <= 0 {
		c.Objects = 20
	}
	if c.MinPages <= 0 {
		c.MinPages = 1
	}
	if c.MaxPages < c.MinPages {
		c.MaxPages = c.MinPages
	}
	if c.PageSize <= 0 {
		c.PageSize = 4096
	}
	if c.Transactions <= 0 {
		c.Transactions = 100
	}
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.HotFraction <= 0 || c.HotFraction > 1 {
		c.HotFraction = 0.25
	}
	if c.HotWeight <= 0 || c.HotWeight > 1 {
		c.HotWeight = 0.85
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 3
	}
	if c.MaxFanout <= 0 {
		c.MaxFanout = 3
	}
	if c.WriteFraction <= 0 {
		c.WriteFraction = 0.7
	}
	if c.ArrivalSpacing <= 0 {
		c.ArrivalSpacing = 200 * time.Microsecond
	}
	return c
}

// Call is one invocation in a generated transaction tree.
type Call struct {
	ObjIndex int
	Method   string
	Seed     uint64
	// ExtraSeg, when > 0, makes the body write segment ExtraSeg-1 without
	// declaring it (misprediction modelling).
	ExtraSeg int
	// Fail makes the body return an error after its writes (rolled back).
	Fail bool
	// Tolerate makes a parent survive this child's failure instead of
	// propagating it.
	Tolerate bool
	Children []Call
}

// FailsOut predicts whether this call aborts out of its own frame: its own
// injected failure, or an untolerated child failure, propagates upward. A
// Tolerate'd child absorbs its whole failing subtree — even when the
// child's own failure came from a grandchild — so the parent survives.
// Tests compare executed outcomes against this oracle.
func (c Call) FailsOut() bool {
	for _, ch := range c.Children {
		if ch.FailsOut() && !ch.Tolerate {
			return true
		}
	}
	return c.Fail
}

// RootSpec is one generated root transaction.
type RootSpec struct {
	At   time.Duration
	Node ids.NodeID
	Call Call
	// Class names the client class this root belongs to (spec-compiled
	// workloads; the legacy generator leaves it empty — one anonymous
	// uniform class). Per-class KPIs key on it.
	Class string
}

// ObjectSpec describes one generated object.
type ObjectSpec struct {
	Class ids.ClassID
	Owner ids.NodeID
	Pages int
}

// Workload is a fully generated experiment input: classes, objects and the
// transaction forest. It is protocol-independent; install it into one
// cluster per protocol to compare them on identical input.
type Workload struct {
	Cfg     Config
	Classes []*schema.Class
	Objects []ObjectSpec
	Roots   []RootSpec
	// Name and SpecHash identify the spec a compiled workload came from
	// ("" / "" for ad-hoc legacy configs): together with the seeds they
	// make any run reproducible from one line (see Provenance).
	Name     string
	SpecHash string
	// ClassNames lists the client-class names in spec order (nil for
	// legacy workloads). KPI reports iterate it instead of discovering
	// classes from the roots, so output order is deterministic.
	ClassNames []string
}

// segName returns the attribute name of segment i.
func segName(i int) string { return fmt.Sprintf("seg%d", i) }

// Generate builds a reproducible workload from cfg — the legacy uniform
// random driver, whose call trees classGen builds for one hotset class.
// Its RNG call sequence is frozen; the uniform spec preset must reproduce
// it byte-for-byte (enforced by tests in internal/sim).
func Generate(cfg Config) (*Workload, error) {
	cfg = cfg.WithDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &Workload{Cfg: cfg}

	// One class per object size; each page is one segment attribute, so
	// declared attribute sets map 1:1 onto predicted page sets.
	classBySize := make(map[int]*schema.Class)
	for size := cfg.MinPages; size <= cfg.MaxPages; size++ {
		cls, err := buildSizedClass(ids.ClassID(size), size, cfg.PageSize, cfg.PredictionWiden, rng)
		if err != nil {
			return nil, err
		}
		classBySize[size] = cls
		w.Classes = append(w.Classes, cls)
	}

	for i := 0; i < cfg.Objects; i++ {
		size := cfg.MinPages + rng.Intn(cfg.MaxPages-cfg.MinPages+1)
		w.Objects = append(w.Objects, ObjectSpec{
			Class: classBySize[size].ID,
			Owner: ids.NodeID(1 + rng.Intn(cfg.Nodes)),
			Pages: size,
		})
	}

	g := &classGen{objects: w.Objects, disorder: cfg.DisorderProb, cls: &ClientClass{
		WriteFraction:  cfg.WriteFraction,
		MaxDepth:       cfg.MaxDepth,
		MaxFanout:      cfg.MaxFanout,
		AbortProb:      cfg.AbortProb,
		MispredictProb: cfg.MispredictProb,
		ObjectDist:     ObjectDist{Dist: "hotset", HotFraction: cfg.HotFraction, HotWeight: cfg.HotWeight},
	}}
	for i := 0; i < cfg.Transactions; i++ {
		at := time.Duration(i)*cfg.ArrivalSpacing +
			time.Duration(rng.Int63n(int64(cfg.ArrivalSpacing)))
		call, ok := g.genCall(rng, nil, nil, 0)
		if !ok {
			continue
		}
		w.Roots = append(w.Roots, RootSpec{
			At:   at,
			Node: ids.NodeID(1 + rng.Intn(cfg.Nodes)),
			Call: call,
		})
	}
	return w, nil
}

// buildSizedClass creates the class for objects of `size` pages: segment
// attributes seg0..seg{size-1} (one page each) and six methods — three
// updaters (w0..w2) and three readers (r0..r2) — with seeded random access
// subsets ("only a subset of which are normally updated by any
// method/transaction", §5).
func buildSizedClass(id ids.ClassID, size, pageSize, widen int, rng *rand.Rand) (*schema.Class, error) {
	b := schema.NewClassBuilder(id, fmt.Sprintf("Obj%dp", size))
	for i := 0; i < size; i++ {
		b.Attr(segName(i), pageSize)
	}
	subset := func(max int) []string {
		if max < 1 {
			max = 1
		}
		n := 1 + rng.Intn(max)
		n += widen
		if n > size {
			n = size
		}
		perm := rng.Perm(size)
		out := make([]string, 0, n)
		for _, p := range perm[:n] {
			out = append(out, segName(p))
		}
		return out
	}
	third := (size + 2) / 3
	half := (size + 1) / 2
	for i := 0; i < 3; i++ {
		b.Method(schema.MethodSpec{
			Name:   fmt.Sprintf("w%d", i),
			Writes: subset(third),
			Reads:  subset(third),
		})
	}
	for i := 0; i < 3; i++ {
		b.Method(schema.MethodSpec{
			Name:  fmt.Sprintf("r%d", i),
			Reads: subset(half),
		})
	}
	return b.Build()
}

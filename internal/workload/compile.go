package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"lotec/internal/ids"
	"lotec/internal/schema"
)

// Compile turns a spec into a concrete Workload: a deterministic per-site
// schedule of root transactions. Identical (spec, seed) inputs compile to
// identical schedules — the compiler draws every random number from
// sub-seeded streams keyed on (seed, class name, stream purpose), so
// adding a class or reordering the spec file never perturbs another
// class's traffic.
func Compile(s *Spec) (*Workload, error) {
	spec := s.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Legacy != nil {
		cfg := *spec.Legacy
		if cfg.Seed == 0 {
			cfg.Seed = spec.Seed
		}
		w, err := Generate(cfg)
		if err != nil {
			return nil, err
		}
		w.Name = spec.Name
		w.SpecHash = spec.Hash()
		return w, nil
	}

	w := &Workload{Name: spec.Name, SpecHash: spec.Hash()}

	// Object population: its own stream, so class edits never reshuffle
	// which objects exist or where they live.
	objRng := rand.New(rand.NewSource(subSeed(spec.Seed, "objects", 0)))
	classBySize := make(map[int]*schema.Class)
	for size := spec.Objects.MinPages; size <= spec.Objects.MaxPages; size++ {
		cls, err := buildSizedClass(ids.ClassID(size), size, spec.PageSize, 0, objRng)
		if err != nil {
			return nil, err
		}
		classBySize[size] = cls
		w.Classes = append(w.Classes, cls)
	}
	for i := 0; i < spec.Objects.Count; i++ {
		size := spec.Objects.MinPages + objRng.Intn(spec.Objects.MaxPages-spec.Objects.MinPages+1)
		w.Objects = append(w.Objects, ObjectSpec{
			Class: classBySize[size].ID,
			Owner: ids.NodeID(1 + objRng.Intn(spec.Nodes)),
			Pages: size,
		})
	}

	horizon := spec.horizon()
	mispredict := 0.0
	for ci := range spec.Classes {
		cls := &spec.Classes[ci]
		w.ClassNames = append(w.ClassNames, cls.Name)
		if cls.MispredictProb > mispredict {
			mispredict = cls.MispredictProb
		}
		roots, err := compileClass(&spec, cls, w.Objects, horizon, len(w.Roots))
		if err != nil {
			return nil, err
		}
		w.Roots = append(w.Roots, roots...)
		if len(w.Roots) > spec.MaxRoots {
			return nil, fmt.Errorf(
				"workload: spec %q compiles to more than max_roots=%d root transactions by class %q — lower rates/populations or shorten horizon_ms",
				spec.Name, spec.MaxRoots, cls.Name)
		}
	}
	// Interleave the per-class streams on the shared timeline. The sort is
	// stable and classes were appended in spec order, so ties keep spec
	// order — deterministic regardless of how the streams line up.
	sort.SliceStable(w.Roots, func(i, j int) bool { return w.Roots[i].At < w.Roots[j].At })

	w.Cfg = Config{
		Seed:           spec.Seed,
		Objects:        spec.Objects.Count,
		MinPages:       spec.Objects.MinPages,
		MaxPages:       spec.Objects.MaxPages,
		PageSize:       spec.PageSize,
		Transactions:   len(w.Roots),
		Nodes:          spec.Nodes,
		WriteBytes:     spec.WriteBytes,
		MispredictProb: mispredict,
	}.WithDefaults()
	return w, nil
}

// compileClass generates one class's root stream: arrivals from the
// class's rate/envelope model, each attributed to a logical client (for
// site affinity) and given a generated call tree.
func compileClass(spec *Spec, cls *ClientClass, objects []ObjectSpec, horizon time.Duration, have int) ([]RootSpec, error) {
	arrRng := rand.New(rand.NewSource(subSeed(spec.Seed, cls.Name, 1)))
	treeRng := rand.New(rand.NewSource(subSeed(spec.Seed, cls.Name, 2)))
	var rateTrace, objTrace []float64
	if cls.Rate.Dist == "trace" {
		var err error
		if rateTrace, err = LoadTrace(cls.Rate.Trace); err != nil {
			return nil, fmt.Errorf("workload: class %q rate: %w", cls.Name, err)
		}
	}
	if cls.ObjectDist.Dist == "trace" {
		var err error
		if objTrace, err = LoadTrace(cls.ObjectDist.Trace); err != nil {
			return nil, fmt.Errorf("workload: class %q objects: %w", cls.Name, err)
		}
	}
	buckets, totalHz := rateBuckets(cls, rateTrace)
	env, envMax := envelope(cls.Arrivals)
	gen := &classGen{objects: objects, cls: cls, objTrace: objTrace}
	gen.initPicker(treeRng)
	salt := fnvHash(cls.Name)

	peakHz := totalHz * envMax
	if peakHz <= 0 {
		return nil, fmt.Errorf("workload: class %q has zero aggregate rate", cls.Name)
	}
	var roots []RootSpec
	t := 0.0 // seconds
	hs := horizon.Seconds()
	for {
		switch cls.Arrivals.Process {
		case "poisson":
			t += arrRng.ExpFloat64() / peakHz
		default: // "uniform"
			t += 1 / peakHz
		}
		if t >= hs {
			break
		}
		// Thin the homogeneous peak-rate stream down to the envelope.
		if f := env(t); f < envMax && arrRng.Float64()*envMax >= f {
			continue
		}
		rank := buckets.pick(arrRng)
		site := ids.NodeID(1 + mix64(salt^uint64(rank))%uint64(spec.Nodes))
		call, ok := gen.genCall(treeRng, nil, nil, 0)
		if !ok {
			continue
		}
		roots = append(roots, RootSpec{
			At:    time.Duration(t * float64(time.Second)),
			Node:  site,
			Call:  call,
			Class: cls.Name,
		})
		if have+len(roots) > spec.MaxRoots {
			// Caller reports the error with context; stop generating.
			return roots, nil
		}
	}
	return roots, nil
}

// subSeed derives an independent RNG seed from (seed, label, stream) via a
// splitmix64-style mix, so streams never overlap.
func subSeed(seed int64, label string, stream uint64) int64 {
	return int64(mix64(uint64(seed) ^ fnvHash(label) ^ (stream * 0x9e3779b97f4a7c15)))
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// mixer used for sub-seeding and stable client→site assignment.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnvHash hashes a string with FNV-1a 64.
func fnvHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// bucketTable aggregates a class's per-client rates into rank buckets:
// bucket i covers client ranks [start[i], start[i+1]) and carries their
// summed rate. Millions of clients cost O(buckets) memory; arrivals are
// attributed to a bucket by rate-weighted draw, then to a rank uniformly
// within the bucket (the residual within-bucket skew is below the bucket
// resolution by construction).
type bucketTable struct {
	cum   []float64 // cumulative rate weight, len = buckets
	start []int     // first rank of each bucket, len = buckets+1
}

const rateBucketCount = 1024

// rateBuckets builds the bucket table for a class and returns it with the
// class's aggregate rate in Hz (always population × MeanHz; the
// distribution only shapes how that budget is spread over clients). trace
// holds the normalized empirical weights when the dist is "trace".
func rateBuckets(cls *ClientClass, trace []float64) (bucketTable, float64) {
	pop := cls.Population
	b := rateBucketCount
	if b > pop {
		b = pop
	}
	tbl := bucketTable{
		cum:   make([]float64, b),
		start: make([]int, b+1),
	}
	for i := 0; i <= b; i++ {
		tbl.start[i] = i * pop / b
	}
	weights := make([]float64, b)
	switch cls.Rate.Dist {
	case "zipf":
		// Rate of rank r ∝ (r+1)^-S; per-bucket mass via the analytic
		// integral so cost is O(buckets) even for millions of clients.
		s := cls.Rate.S
		primitive := func(x float64) float64 {
			if math.Abs(s-1) < 1e-9 {
				return math.Log(x + 1)
			}
			return math.Pow(x+1, 1-s) / (1 - s)
		}
		for i := 0; i < b; i++ {
			weights[i] = primitive(float64(tbl.start[i+1])) - primitive(float64(tbl.start[i]))
		}
	case "lognormal":
		// Rate of the q-quantile client: exp(μ + σ·Φ⁻¹(q)) with μ chosen
		// so the distribution mean is MeanHz.
		sigma := cls.Rate.Sigma
		mu := math.Log(cls.Rate.MeanHz) - sigma*sigma/2
		for i := 0; i < b; i++ {
			n := tbl.start[i+1] - tbl.start[i]
			q := (float64(i) + 0.5) / float64(b)
			weights[i] = float64(n) * math.Exp(mu+sigma*invNorm(q))
		}
	case "trace":
		// Empirical: each bucket carries the trace mass over its rank span,
		// resampled in quantile space onto the class population.
		for i := 0; i < b; i++ {
			weights[i] = traceMass(trace,
				float64(tbl.start[i])/float64(pop), float64(tbl.start[i+1])/float64(pop))
		}
	default: // "uniform"
		for i := 0; i < b; i++ {
			weights[i] = float64(tbl.start[i+1] - tbl.start[i])
		}
	}
	var sum float64
	for i, w := range weights {
		sum += w
		tbl.cum[i] = sum
	}
	return tbl, float64(pop) * cls.Rate.MeanHz
}

// pick draws a client rank: bucket by rate weight, rank uniform within.
func (t bucketTable) pick(rng *rand.Rand) int {
	u := rng.Float64() * t.cum[len(t.cum)-1]
	i := sort.SearchFloat64s(t.cum, u)
	if i >= len(t.cum) {
		i = len(t.cum) - 1
	}
	lo, hi := t.start[i], t.start[i+1]
	if hi <= lo+1 {
		return lo
	}
	return lo + rng.Intn(hi-lo)
}

// invNorm approximates the standard normal inverse CDF (Acklam's
// algorithm; relative error < 1.15e-9 over (0,1)).
func invNorm(p float64) float64 {
	if p <= 0 || p >= 1 {
		if p <= 0 {
			return math.Inf(-1)
		}
		return math.Inf(1)
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	bb := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow, pHigh = 0.02425, 1 - 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > pHigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((bb[0]*r+bb[1])*r+bb[2])*r+bb[3])*r+bb[4])*r + 1)
	}
}

// envelope returns the rate modulation function (of time in seconds) and
// its maximum, for thinning.
func envelope(a ArrivalSpec) (func(float64) float64, float64) {
	period := a.PeriodMs / 1000
	switch a.Envelope {
	case "diurnal":
		amp := a.Amplitude
		return func(t float64) float64 {
			return 1 + amp*math.Sin(2*math.Pi*t/period)
		}, 1 + amp
	case "bursty":
		duty, factor := a.BurstDuty, a.BurstFactor
		return func(t float64) float64 {
			if math.Mod(t, period) < duty*period {
				return factor
			}
			return 1
		}, factor
	default: // "constant"
		return func(float64) float64 { return 1 }, 1
	}
}

// classGen generates call trees: for one client class of a spec, and for
// Generate's one anonymous class. Objects are acquired in ascending index
// order — picking strictly above the highest index the family has acquired
// — so workloads are deadlock-free by construction unless disorder breaks
// the order. The class supplies the object distribution and the tree
// shape. A draw whose probability is 0 is not made, so a knob left at 0
// never shifts the random stream.
type classGen struct {
	objects []ObjectSpec
	cls     *ClientClass
	// disorder is the probability an invocation ignores the ascending
	// order (Config.DisorderProb; spec classes have none).
	disorder float64
	zipf     *rand.Zipf
	objTrace []float64 // normalized empirical weights (dist "trace")
	objCum   []float64 // objTrace resampled to the object population
}

// initPicker prepares distribution state bound to the tree RNG.
func (g *classGen) initPicker(rng *rand.Rand) {
	if g.cls.ObjectDist.Dist == "zipf" {
		g.zipf = rand.NewZipf(rng, g.cls.ObjectDist.S, 1, uint64(len(g.objects)-1))
	}
	if g.cls.ObjectDist.Dist == "trace" && len(g.objTrace) > 0 {
		g.objCum = traceCum(g.objTrace, len(g.objects))
	}
}

// pickObject draws an object index ≥ minIdx per the class distribution,
// avoiding the exclusion path. Falls back to a uniform draw when the
// skewed head keeps landing below the cursor.
func (g *classGen) pickObject(rng *rand.Rand, exclude map[int]bool, minIdx int) (int, bool) {
	total := len(g.objects)
	if minIdx >= total {
		return 0, false
	}
	d := g.cls.ObjectDist
	for tries := 0; tries < 20; tries++ {
		var idx int
		switch d.Dist {
		case "zipf":
			idx = int(g.zipf.Uint64())
			if idx < minIdx {
				idx = minIdx + rng.Intn(total-minIdx)
			}
		case "trace":
			u := rng.Float64() * g.objCum[len(g.objCum)-1]
			idx = sort.SearchFloat64s(g.objCum, u)
			if idx >= total {
				idx = total - 1
			}
			if idx < minIdx {
				idx = minIdx + rng.Intn(total-minIdx)
			}
		case "hotset":
			hot := int(float64(total) * d.HotFraction)
			if hot < 1 {
				hot = 1
			}
			if rng.Float64() < d.HotWeight && minIdx < hot {
				idx = minIdx + rng.Intn(hot-minIdx)
			} else {
				idx = minIdx + rng.Intn(total-minIdx)
			}
		default: // "uniform"
			idx = minIdx + rng.Intn(total-minIdx)
		}
		if !exclude[idx] {
			return idx, true
		}
	}
	return 0, false
}

// genCall builds one random invocation subtree. cursor tracks the highest
// object index acquired so far on the family's depth-first path, and path
// holds the objects of the calling frames, which a child never re-enters
// (mutually recursive invocations are precluded, §3.4).
func (g *classGen) genCall(rng *rand.Rand, path map[int]bool, cursor *int, depth int) (Call, bool) {
	cls := g.cls
	if path == nil {
		path = make(map[int]bool)
	}
	if cursor == nil {
		c := -1
		cursor = &c
	}
	minIdx := *cursor + 1
	if g.disorder > 0 && rng.Float64() < g.disorder {
		minIdx = 0
	}
	idx, ok := g.pickObject(rng, path, minIdx)
	if !ok {
		return Call{}, false
	}
	if idx > *cursor {
		*cursor = idx
	}
	var method string
	if rng.Float64() < cls.WriteFraction {
		method = fmt.Sprintf("w%d", rng.Intn(3))
	} else {
		method = fmt.Sprintf("r%d", rng.Intn(3))
	}
	c := Call{
		ObjIndex: idx,
		Method:   method,
		Seed:     rng.Uint64(),
	}
	if cls.MispredictProb > 0 && rng.Float64() < cls.MispredictProb {
		c.ExtraSeg = 1 + rng.Intn(g.objects[idx].Pages)
	}
	if cls.AbortProb > 0 && rng.Float64() < cls.AbortProb {
		c.Fail = true
		c.Tolerate = rng.Float64() < 0.5
	}
	if depth < cls.MaxDepth {
		budget := cls.MaxFanout - depth
		if budget > 0 {
			n := rng.Intn(budget + 1)
			path[idx] = true
			for i := 0; i < n; i++ {
				child, ok := g.genCall(rng, path, cursor, depth+1)
				if ok {
					c.Children = append(c.Children, child)
				}
			}
			delete(path, idx)
		}
	}
	return c, true
}

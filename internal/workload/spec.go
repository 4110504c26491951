package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Spec is the declarative workload grammar. A spec is seed-pure: the same
// spec and seed compile to the same schedule on every run, which is what
// lets the calibrate loop replay identical traffic on SimNet and on a real
// TCP cluster. Specs are written as JSON (see EXPERIMENTS.md for the
// grammar) or named presets (Presets).
type Spec struct {
	// Name identifies the spec in provenance output. Defaults to "custom"
	// for parsed files.
	Name string `json:"name"`
	// Seed drives every random draw (sub-seeded per class and stream).
	Seed int64 `json:"seed"`
	// Nodes is the number of sites client traffic is multiplexed onto.
	Nodes int `json:"nodes"`
	// PageSize must match the cluster's (default 4096).
	PageSize int `json:"page_size"`
	// Objects shapes the shared-object population.
	Objects ObjectPop `json:"objects"`
	// HorizonMs is the generation window: arrivals are produced until the
	// virtual clock passes this many milliseconds (default 50).
	HorizonMs float64 `json:"horizon_ms"`
	// MaxRoots caps the compiled schedule as a safety net against
	// mis-specified rates (default 20000).
	MaxRoots int `json:"max_roots"`
	// WriteBytes caps how many bytes each declared write modifies
	// (Config.WriteBytes semantics; 0 = whole attributes).
	WriteBytes int `json:"write_bytes"`
	// Classes are the heterogeneous client populations. At least one is
	// required unless Legacy is set.
	Classes []ClientClass `json:"classes"`
	// Legacy, when set, bypasses the spec's classes and arrival model and
	// routes through the uniform driver (Generate). The "uniform"
	// preset uses it to reproduce the pre-spec driver's traffic
	// byte-for-byte. If Legacy.Seed is zero, Seed is used.
	Legacy *Config `json:"legacy,omitempty"`
}

// ObjectPop shapes the generated object population.
type ObjectPop struct {
	Count    int `json:"count"`
	MinPages int `json:"min_pages"`
	MaxPages int `json:"max_pages"`
}

// ClientClass describes one population of logical clients sharing a
// behaviour profile. Millions of clients are modelled in O(buckets)
// memory: per-client rates are aggregated into rank buckets and arrivals
// are attributed back to (bucketed) client identities for site assignment.
type ClientClass struct {
	// Name keys per-class KPIs; must be unique within a spec.
	Name string `json:"name"`
	// Population is the number of logical clients (may be millions).
	Population int `json:"population"`
	// WriteFraction is the probability an invocation picks an updating
	// method (default 0.7).
	WriteFraction float64 `json:"write_fraction"`
	// MaxDepth / MaxFanout bound the generated call trees (defaults 3/3).
	MaxDepth  int `json:"max_depth"`
	MaxFanout int `json:"max_fanout"`
	// AbortProb injects failures exactly like Config.AbortProb.
	AbortProb float64 `json:"abort_prob"`
	// MispredictProb injects undeclared writes like Config.MispredictProb
	// (requires a Lenient cluster).
	MispredictProb float64 `json:"mispredict_prob"`
	// Rate distributes per-client mean request rates.
	Rate RateDist `json:"rate"`
	// Arrivals shapes the class's open-loop arrival process.
	Arrivals ArrivalSpec `json:"arrivals"`
	// ObjectDist selects which objects the class's transactions touch.
	ObjectDist ObjectDist `json:"objects"`
}

// RateDist distributes mean request rates over a class's clients.
type RateDist struct {
	// Dist is "uniform" (every client at MeanHz), "zipf" (rate ∝
	// 1/rank^S, scaled so the class mean is MeanHz), "lognormal"
	// (median-MeanHz body with Sigma spread) or "trace" (empirical
	// per-rank weights loaded from Trace; see trace.go).
	Dist string `json:"dist"`
	// MeanHz is the per-client mean request rate in requests/second.
	MeanHz float64 `json:"mean_hz"`
	// S is the zipf exponent (> 0; typical 0.8–1.5).
	S float64 `json:"s"`
	// Sigma is the lognormal shape (> 0; typical 1–2.5).
	Sigma float64 `json:"sigma"`
	// Trace is the trace-file path (CSV or JSONL), required when Dist is
	// "trace". The file's weights shape how the class's rate budget
	// (Population × MeanHz) is spread over client ranks.
	Trace string `json:"trace,omitempty"`
}

// ArrivalSpec shapes the open-loop arrival process of one class.
type ArrivalSpec struct {
	// Process is "poisson" (exponential gaps, thinned against the
	// envelope) or "uniform" (evenly spaced, envelope-modulated).
	Process string `json:"process"`
	// Envelope is "constant", "diurnal" (sinusoidal, Amplitude ∈ [0,1],
	// period PeriodMs) or "bursty" (square wave: BurstFactor× rate for
	// BurstDuty of each period).
	Envelope    string  `json:"envelope"`
	PeriodMs    float64 `json:"period_ms"`
	Amplitude   float64 `json:"amplitude"`
	BurstDuty   float64 `json:"burst_duty"`
	BurstFactor float64 `json:"burst_factor"`
}

// ObjectDist selects objects for one class's invocations.
type ObjectDist struct {
	// Dist is "uniform", "hotset" (legacy HotFraction/HotWeight skew),
	// "zipf" (rank-S popularity over the object population) or "trace"
	// (empirical per-rank popularity loaded from Trace; see trace.go).
	Dist        string  `json:"dist"`
	S           float64 `json:"s"`
	HotFraction float64 `json:"hot_fraction"`
	HotWeight   float64 `json:"hot_weight"`
	// Trace is the trace-file path, required when Dist is "trace".
	Trace string `json:"trace,omitempty"`
}

// withDefaults normalizes a spec in place and returns it.
func (s Spec) withDefaults() Spec {
	if s.Name == "" {
		s.Name = "custom"
	}
	if s.Nodes <= 0 {
		s.Nodes = 8
	}
	if s.PageSize <= 0 {
		s.PageSize = 4096
	}
	if s.Objects.Count <= 0 {
		s.Objects.Count = 20
	}
	if s.Objects.MinPages <= 0 {
		s.Objects.MinPages = 1
	}
	if s.Objects.MaxPages < s.Objects.MinPages {
		s.Objects.MaxPages = s.Objects.MinPages
	}
	if s.HorizonMs <= 0 {
		s.HorizonMs = 50
	}
	if s.MaxRoots <= 0 {
		s.MaxRoots = 20000
	}
	for i := range s.Classes {
		c := &s.Classes[i]
		if c.Population <= 0 {
			c.Population = 1000
		}
		if c.WriteFraction <= 0 {
			c.WriteFraction = 0.7
		}
		if c.MaxDepth <= 0 {
			c.MaxDepth = 3
		}
		if c.MaxFanout <= 0 {
			c.MaxFanout = 3
		}
		if c.Rate.Dist == "" {
			c.Rate.Dist = "uniform"
		}
		if c.Rate.MeanHz <= 0 {
			c.Rate.MeanHz = 1
		}
		if c.Rate.S <= 0 {
			c.Rate.S = 1.1
		}
		if c.Rate.Sigma <= 0 {
			c.Rate.Sigma = 1.5
		}
		if c.Arrivals.Process == "" {
			c.Arrivals.Process = "poisson"
		}
		if c.Arrivals.Envelope == "" {
			c.Arrivals.Envelope = "constant"
		}
		if c.Arrivals.PeriodMs <= 0 {
			c.Arrivals.PeriodMs = 20
		}
		if c.Arrivals.Amplitude <= 0 || c.Arrivals.Amplitude > 1 {
			c.Arrivals.Amplitude = 0.8
		}
		if c.Arrivals.BurstDuty <= 0 || c.Arrivals.BurstDuty >= 1 {
			c.Arrivals.BurstDuty = 0.2
		}
		if c.Arrivals.BurstFactor <= 1 {
			c.Arrivals.BurstFactor = 4
		}
		if c.ObjectDist.Dist == "" {
			c.ObjectDist.Dist = "uniform"
		}
		if c.ObjectDist.S <= 1 {
			c.ObjectDist.S = 1.2
		}
		if c.ObjectDist.HotFraction <= 0 || c.ObjectDist.HotFraction > 1 {
			c.ObjectDist.HotFraction = 0.25
		}
		if c.ObjectDist.HotWeight <= 0 || c.ObjectDist.HotWeight > 1 {
			c.ObjectDist.HotWeight = 0.85
		}
	}
	return s
}

// Validate rejects specs the compiler cannot honour.
func (s Spec) Validate() error {
	if s.Legacy == nil && len(s.Classes) == 0 {
		return fmt.Errorf("workload: spec %q has no classes and no legacy config", s.Name)
	}
	seen := make(map[string]bool, len(s.Classes))
	for _, c := range s.Classes {
		if c.Name == "" {
			return fmt.Errorf("workload: spec %q: class with empty name", s.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("workload: spec %q: duplicate class %q", s.Name, c.Name)
		}
		seen[c.Name] = true
		switch c.Rate.Dist {
		case "uniform", "zipf", "lognormal":
		case "trace":
			if c.Rate.Trace == "" {
				return fmt.Errorf("workload: class %q: rate dist \"trace\" needs a trace file", c.Name)
			}
		default:
			return fmt.Errorf("workload: class %q: unknown rate dist %q", c.Name, c.Rate.Dist)
		}
		switch c.Arrivals.Process {
		case "poisson", "uniform":
		default:
			return fmt.Errorf("workload: class %q: unknown arrival process %q", c.Name, c.Arrivals.Process)
		}
		switch c.Arrivals.Envelope {
		case "constant", "diurnal", "bursty":
		default:
			return fmt.Errorf("workload: class %q: unknown envelope %q", c.Name, c.Arrivals.Envelope)
		}
		switch c.ObjectDist.Dist {
		case "uniform", "hotset", "zipf":
		case "trace":
			if c.ObjectDist.Trace == "" {
				return fmt.Errorf("workload: class %q: object dist \"trace\" needs a trace file", c.Name)
			}
		default:
			return fmt.Errorf("workload: class %q: unknown object dist %q", c.Name, c.ObjectDist.Dist)
		}
	}
	return nil
}

// ParseSpec decodes a JSON spec, applies defaults and validates it.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("workload: parse spec: %w", err)
	}
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec resolves arg as a preset name first, then as a path to a JSON
// spec file.
func LoadSpec(arg string) (*Spec, error) {
	if s, ok := Preset(arg); ok {
		return s, nil
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return nil, fmt.Errorf("workload: %q is neither a preset (%v) nor a readable spec file: %w",
			arg, PresetNames(), err)
	}
	return ParseSpec(data)
}

// Hash returns the spec's identity: a hex SHA-256 over its normalized
// canonical JSON. Two specs with the same hash compile to the same
// schedule.
func (s Spec) Hash() string {
	data, err := json.Marshal(s.withDefaults())
	if err != nil {
		// Spec is a closed tree of marshalable fields; this cannot fire.
		panic(fmt.Sprintf("workload: hash spec: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Provenance identifies one run completely: replaying the named spec (or
// file with the same hash) under the same seeds reproduces it.
type Provenance struct {
	// Workload is the spec name (preset, file-derived, or "custom").
	Workload string `json:"workload"`
	// SpecHash is Spec.Hash() of the effective (defaulted) spec.
	SpecHash string `json:"spec_hash"`
	// Seed is the workload seed.
	Seed int64 `json:"seed"`
	// FaultSeed drives the fault plan, when one is active.
	FaultSeed uint64 `json:"fault_seed"`
	// FaultPlan names the active fault plan ("" when none).
	FaultPlan string `json:"fault_plan,omitempty"`
}

// Provenance returns the provenance stamp of a compiled workload.
func (w *Workload) Provenance() Provenance {
	return Provenance{Workload: w.Name, SpecHash: w.SpecHash, Seed: w.Cfg.Seed}
}

// presets returns the named spec table. Rebuilt per call so callers can
// mutate the result (e.g. override the seed) without aliasing.
func presets() map[string]Spec {
	return map[string]Spec{
		// uniform routes through the frozen legacy generator and is
		// byte-for-byte the pre-spec driver's traffic (enforced by
		// TestUniformPresetMatchesLegacyDriver in internal/sim).
		"uniform": {
			Name:   "uniform",
			Seed:   1,
			Legacy: &Config{},
		},
		// zipf-hot: a small writer population and a large reader
		// population, both hammering a Zipf-popular object head — the
		// skewed cell the netmodel is calibrated on.
		"zipf-hot": {
			Name:      "zipf-hot",
			Seed:      1,
			Nodes:     8,
			Objects:   ObjectPop{Count: 24, MinPages: 1, MaxPages: 5},
			HorizonMs: 40,
			Classes: []ClientClass{
				{
					Name:          "writer",
					Population:    2000,
					WriteFraction: 0.9,
					Rate:          RateDist{Dist: "zipf", MeanHz: 2, S: 1.1},
					Arrivals:      ArrivalSpec{Process: "poisson", Envelope: "constant"},
					ObjectDist:    ObjectDist{Dist: "zipf", S: 1.3},
				},
				{
					Name:          "reader",
					Population:    50000,
					WriteFraction: 0.05,
					Rate:          RateDist{Dist: "lognormal", MeanHz: 0.12, Sigma: 1.8},
					Arrivals:      ArrivalSpec{Process: "poisson", Envelope: "constant"},
					ObjectDist:    ObjectDist{Dist: "zipf", S: 1.3},
				},
			},
		},
		// diurnal: a mixed class whose arrival rate swings sinusoidally —
		// two peaks inside the horizon.
		"diurnal": {
			Name:      "diurnal",
			Seed:      1,
			Nodes:     8,
			Objects:   ObjectPop{Count: 20, MinPages: 1, MaxPages: 5},
			HorizonMs: 60,
			Classes: []ClientClass{
				{
					Name:          "mixed",
					Population:    20000,
					WriteFraction: 0.5,
					Rate:          RateDist{Dist: "lognormal", MeanHz: 0.35, Sigma: 1.5},
					Arrivals: ArrivalSpec{
						Process: "poisson", Envelope: "diurnal",
						PeriodMs: 30, Amplitude: 0.8,
					},
					ObjectDist: ObjectDist{Dist: "hotset", HotFraction: 0.25, HotWeight: 0.85},
				},
			},
		},
		// write-heavy: almost every invocation updates, in bursts — the
		// worst case for ownership churn and delta journaling.
		"write-heavy": {
			Name:      "write-heavy",
			Seed:      1,
			Nodes:     8,
			Objects:   ObjectPop{Count: 20, MinPages: 1, MaxPages: 5},
			HorizonMs: 40,
			Classes: []ClientClass{
				{
					Name:          "writer",
					Population:    5000,
					WriteFraction: 0.95,
					Rate:          RateDist{Dist: "zipf", MeanHz: 1.5, S: 0.9},
					Arrivals: ArrivalSpec{
						Process: "poisson", Envelope: "bursty",
						PeriodMs: 10, BurstDuty: 0.3, BurstFactor: 4,
					},
					ObjectDist: ObjectDist{Dist: "uniform"},
				},
			},
		},
	}
}

// Preset returns a copy of the named built-in spec.
func Preset(name string) (*Spec, bool) {
	p, ok := presets()[name]
	if !ok {
		return nil, false
	}
	p = p.withDefaults()
	return &p, true
}

// PresetNames lists the built-in spec names, sorted.
func PresetNames() []string {
	m := presets()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// horizon returns the spec's generation window as a duration.
func (s Spec) horizon() time.Duration {
	return time.Duration(s.HorizonMs * float64(time.Millisecond))
}

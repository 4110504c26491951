package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runPlan is the timing of one run of a workload.
type runPlan struct {
	warmup, window time.Duration
	// slices divides the window into the parts summarize takes its
	// quartiles over.
	slices int
	// grace is how long after the window the run waits for roots still in
	// flight before counting them as failed.
	grace time.Duration
	// inflightCap bounds the open-loop generator.
	inflightCap int
	// sleep replaces time.Sleep in the open-loop generator (tests make it
	// oversleep); nil means time.Sleep.
	sleep func(time.Duration)
}

func (p runPlan) total() time.Duration { return p.warmup + p.window }

// maxGeneratorLag is how late the open-loop generator may be and still send
// an arrival. The generator is a goroutine of its own, so it only falls this
// far behind when the whole process was stopped (a stall of the host), and
// then every arrival due during the stall would be sent at once. The program
// under test does not survive that: a burst of 250 roots on hot-open's hot
// objects puts thousands of waiters in the directory, whose deadlock search
// re-sorts all of them on every queued acquire, and the cluster commits
// nothing more until the 30 s call timeouts fire. That collapse is real, but
// a benchmark that meets it whenever the host hiccups measures the host. So
// arrivals later than this are skipped, not attempted, and counted in
// workload.generator_skipped.
const maxGeneratorLag = 50 * time.Millisecond

// sample is one attempted root. start is when it was sent (closed loop) or
// due (open loop), in nanoseconds since the run began; lat is from start to
// Node.Run's return. A root that failed, was refused or never finished has
// ok false and counts as slower than any limit.
type sample struct {
	start, lat int64
	ok         bool
}

// sink collects samples. Roots in flight are registered so that a run that
// hits its deadline can still account for them.
type sink struct {
	mu      sync.Mutex
	pending map[uint64]int64 // root ID → start
	done    []sample
}

const sinkShards = 64

type sinks [sinkShards]sink

func (s *sinks) begin(id uint64, start int64) {
	sh := &s[id%sinkShards]
	sh.mu.Lock()
	sh.pending[id] = start
	sh.mu.Unlock()
}

func (s *sinks) end(id uint64, sm sample) {
	sh := &s[id%sinkShards]
	sh.mu.Lock()
	delete(sh.pending, id)
	sh.done = append(sh.done, sm)
	sh.mu.Unlock()
}

// drain returns every sample, turning roots still in flight into failures.
func (s *sinks) drain() (all []sample, unfinished int) {
	for i := range s {
		sh := &s[i]
		sh.mu.Lock()
		all = append(all, sh.done...)
		for _, start := range sh.pending {
			all = append(all, sample{start: start})
			unfinished++
		}
		sh.mu.Unlock()
	}
	return all, unfinished
}

// runResult is the raw outcome of one run.
type runResult struct {
	plan runPlan
	open bool
	// t0 is when the run began; sample times count from it.
	t0         time.Time
	samples    []sample
	unfinished int
	refused    int
	// maxInflight is the most roots the open-loop generator saw in flight.
	maxInflight int
	// lags are how late the open-loop generator reached each window root;
	// skipped counts the arrivals (warm-up included) it was too late to send.
	lags    []int64
	skipped int
	// cpu[i] is the process CPU time at the start of window slice i;
	// cpu[slices] at the window's end.
	cpu []time.Duration
	// runErr is the first error a root returned.
	runErr error
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapInUse forces a collection and returns the live heap.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// drive offers roots to run for warm-up plus window, as sp's loop says, and
// returns once every root has finished or the grace period has passed. run
// executes root id of the sequence and reports whether it committed.
func drive(sp spec, roots []root, run func(id uint64, r *root) error, plan runPlan) *runResult {
	res := &runResult{plan: plan, open: sp.open, cpu: make([]time.Duration, plan.slices+1)}
	var sk sinks
	for i := range sk {
		sk[i].pending = make(map[uint64]int64)
	}
	var errOnce sync.Once
	t0 := time.Now()
	res.t0 = t0
	since := func() int64 { return int64(time.Since(t0)) }

	// submit runs root id, timed from start.
	submit := func(id uint64, start int64) {
		r := &roots[id%uint64(len(roots))]
		sk.begin(id, start)
		err := run(id, r)
		end := since()
		if err != nil {
			errOnce.Do(func() { res.runErr = fmt.Errorf("root %d (object %v at node %d): %w", id, r.obj, r.node, err) })
		}
		sk.end(id, sample{start: start, lat: end - start, ok: err == nil})
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // CPU clock at slice boundaries
		defer wg.Done()
		slice := plan.window / time.Duration(plan.slices)
		for i := range res.cpu {
			time.Sleep(time.Until(t0.Add(plan.warmup + time.Duration(i)*slice)))
			res.cpu[i] = cpuTime()
		}
	}()

	total := int64(plan.total())
	if sp.open {
		sleep := plan.sleep
		if sleep == nil {
			sleep = time.Sleep
		}
		var inflight atomic.Int64
		var due int64
		for id := uint64(0); ; id++ {
			due += int64(roots[id%uint64(len(roots))].gap)
			if due >= total {
				break
			}
			sleep(time.Duration(due - since()))
			lag := max(since()-due, 0)
			if due >= int64(plan.warmup) {
				res.lags = append(res.lags, lag)
			}
			if lag > int64(maxGeneratorLag) {
				res.skipped++
				continue
			}
			now := int(inflight.Load())
			res.maxInflight = max(res.maxInflight, now)
			if now >= plan.inflightCap {
				res.refused++
				sk.end(id, sample{start: due})
				continue
			}
			inflight.Add(1)
			wg.Add(1)
			go func(id uint64, due int64) {
				defer wg.Done()
				defer inflight.Add(-1)
				submit(id, due)
			}(id, due)
		}
	} else {
		var next atomic.Uint64
		for w := 0; w < sp.inflight; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					now := since()
					if now >= total {
						return
					}
					submit(next.Add(1)-1, now)
				}
			}()
		}
	}

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(time.Until(t0.Add(plan.total() + plan.grace))):
	}
	res.samples, res.unfinished = sk.drain()
	return res
}

// summary is the end-to-end view of a run.
type summary struct {
	attempted, failed int
	commitsPerS       float64
	p50ms, p99ms      float64
	sloShare          float64
	cpuMsPerCommit    float64
	// completed counts every committed root, warm-up included.
	completed int
	// p50n is the smallest sample count of a slice that has any; p99beyond
	// the number of window samples beyond the 99th percentile.
	p50n, p99beyond int
	// The per-slice values the metrics are taken from, for the result file:
	// a run the host disturbed shows there as a run of bad slices.
	sliceRate, sliceP50, sliceCPU []float64
}

// latMs converts a latency percentile to milliseconds; a percentile that
// falls on a failed root reads as the run's whole length.
func (p runPlan) latMs(ns int64) float64 {
	if ns == math.MaxInt64 {
		ns = int64(p.total() + p.grace)
	}
	return float64(ns) / 1e6
}

// quantileF returns the q-quantile of v by linear interpolation.
func quantileF(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// bestShare picks the value a per-slice metric is reported as: the 5th
// percentile from the better end of its slices.
const bestShare = 0.05

// summarize folds a run's samples into its summary. A root belongs to the
// window slice it started in. Throughput, median latency and CPU per commit
// are taken per slice and reported as the slices' 5th percentile from the
// better end. Slices differ by a factor of two inside a quiet run, because
// the program leaks about 1 KB per commit and the collector marks all of it
// in every cycle, so the better tail is the program between two marks; and
// what disturbs a slice from outside (a neighbour's burst, a stall of the
// virtual machine) only ever makes it worse. Open-loop throughput is the
// window's mean, as the offered rate pins it. slo_share and the failures
// count every root of the window, so a stall the program itself causes is
// not hidden.
func summarize(res *runResult) summary {
	plan := res.plan
	slice := int64(plan.window) / int64(plan.slices)
	lats := make([][]int64, plan.slices)
	commits := make([]int, plan.slices)
	var s summary
	within := 0
	for _, sm := range res.samples {
		if sm.ok {
			s.completed++
		}
		i := (sm.start - int64(plan.warmup)) / slice
		if sm.start < int64(plan.warmup) || i >= int64(plan.slices) {
			continue
		}
		s.attempted++
		lat := sm.lat
		if sm.ok {
			commits[i]++
			if lat <= int64(sloLimit) {
				within++
			}
		} else {
			s.failed++
			lat = math.MaxInt64
		}
		lats[i] = append(lats[i], lat)
	}
	var rate, p50, cpu []float64
	var all []int64
	for i, l := range lats {
		rate = append(rate, float64(commits[i])/(float64(slice)/1e9))
		if len(l) == 0 {
			continue
		}
		sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
		p50 = append(p50, plan.latMs(percentile(l, 0.50)))
		if commits[i] > 0 {
			cpu = append(cpu, float64(res.cpu[i+1]-res.cpu[i])/1e6/float64(commits[i]))
		}
		if s.p50n == 0 || len(l) < s.p50n {
			s.p50n = len(l)
		}
		all = append(all, l...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	s.sliceRate, s.sliceP50, s.sliceCPU = rate, p50, cpu
	s.commitsPerS = quantileF(rate, 1-bestShare)
	if res.open {
		s.commitsPerS = float64(s.attempted-s.failed) / plan.window.Seconds()
	}
	s.p50ms, s.cpuMsPerCommit = quantileF(p50, bestShare), quantileF(cpu, bestShare)
	s.p99ms = plan.latMs(percentile(all, 0.99))
	s.p99beyond = len(all) - int(math.Ceil(0.99*float64(len(all))))
	s.sloShare = ratio(float64(within), float64(s.attempted))
	return s
}

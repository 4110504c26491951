package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"time"
)

// Spans are recorded by the benchmark's own files, around the calls into the
// program under test: a root span around Node.Run, a body span around each
// benchmark-owned body and a call span around each ReadAt, WriteAt and
// Invoke the body makes. A root's spans share its ID, which travels in the
// call argument.

type spanName uint8

const (
	spanRoot spanName = iota
	spanBody
	spanRead
	spanWrite
	spanInvoke
)

var spanNames = [...]string{"root", "body", "read", "write", "invoke"}

// span is one timed interval. parent indexes the root's span list (-1 for
// the root span); start and end are nanoseconds since the tracer was made.
type span struct {
	name       spanName
	parent     int32
	start, end int64
}

// rootTrace holds the spans of one root. A root runs on one goroutine from
// Node.Run through every nested body, so it needs no lock. All methods are
// safe on a nil receiver, which is what an untraced run passes around.
type rootTrace struct {
	tr    *tracer
	node  int32
	spans []span
	cur   int32 // innermost open span
}

func (rt *rootTrace) open(name spanName) int32 {
	if rt == nil {
		return -1
	}
	idx := int32(len(rt.spans))
	rt.spans = append(rt.spans, span{name: name, parent: rt.cur, start: rt.tr.now()})
	rt.cur = idx
	return idx
}

func (rt *rootTrace) close(idx int32) {
	if rt == nil {
		return
	}
	rt.spans[idx].end = rt.tr.now()
	rt.cur = rt.spans[idx].parent
}

// tracer keeps every root's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	roots []*rootTrace // indexed by root ID; nil where not traced
}

// maxTracedRoots bounds the tracer's index; roots beyond it run untraced.
const maxTracedRoots = 1 << 20

func newTracer() *tracer {
	return &tracer{t0: time.Now(), roots: make([]*rootTrace, maxTracedRoots)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// newRoot starts the trace of root id and opens its root span (index 0).
func (t *tracer) newRoot(id uint64, node int32) *rootTrace {
	if t == nil || id >= uint64(len(t.roots)) {
		return nil
	}
	rt := &rootTrace{tr: t, node: node, spans: make([]span, 0, 8), cur: -1}
	t.roots[id] = rt
	rt.open(spanRoot)
	return rt
}

// root returns the trace a body's root ID names.
func (t *tracer) root(id uint64) *rootTrace {
	if t == nil || id >= uint64(len(t.roots)) {
		return nil
	}
	return t.roots[id]
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children are clipped to the
// parent and overlapping children are counted once. spans must be in start
// order, which is the order open appends them in.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	coveredTo := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		coveredTo[i] = s.start
	}
	for _, s := range spans {
		if s.parent < 0 {
			continue
		}
		p := spans[s.parent]
		from, to := max(s.start, coveredTo[s.parent]), min(s.end, p.end)
		if to > from {
			self[s.parent] -= to - from
			coveredTo[s.parent] = to
		}
	}
	return self
}

// spanStats is what the traced run reports from the spans.
type spanStats struct {
	roots                 int
	rootPre, rootPost     []int64 // per root
	invokePre, invokePost []int64 // per nested call
	readSum, writeSum     int64
	reads, writes         int64
	bodySelfSum           int64
	bodies                int64
}

// analyze folds the finished roots that started in [from, to), in the
// tracer's time, into span statistics and checks, per root, that the self times sum to the root span.
func (t *tracer) analyze(from, to int64) (*spanStats, error) {
	st := &spanStats{}
	for id, rt := range t.roots {
		if rt == nil || rt.spans[0].start < from || rt.spans[0].start >= to || rt.spans[0].end == 0 {
			continue
		}
		self := selfTimes(rt.spans)
		var sum int64
		for _, v := range self {
			sum += v
		}
		if rootDur := rt.spans[0].end - rt.spans[0].start; sum != rootDur {
			return nil, fmt.Errorf("root %d: span self times sum to %d ns, root span is %d ns", id, sum, rootDur)
		}
		st.roots++
		firstBody, lastBody := int32(-1), int32(-1)
		for i, s := range rt.spans {
			switch s.name {
			case spanBody:
				st.bodySelfSum += self[i]
				st.bodies++
				if s.parent == 0 {
					if firstBody < 0 {
						firstBody = int32(i)
					}
					lastBody = int32(i)
				} else {
					inv := rt.spans[s.parent]
					st.invokePre = append(st.invokePre, s.start-inv.start)
					st.invokePost = append(st.invokePost, inv.end-s.end)
				}
			case spanRead:
				st.readSum += s.end - s.start
				st.reads++
			case spanWrite:
				st.writeSum += s.end - s.start
				st.writes++
			}
		}
		if firstBody >= 0 {
			st.rootPre = append(st.rootPre, rt.spans[firstBody].start-rt.spans[0].start)
			st.rootPost = append(st.rootPost, rt.spans[0].end-rt.spans[lastBody].end)
		}
	}
	return st, nil
}

// write dumps every finished root's spans as JSON: one object per root with
// its spans as [name, parent, start_ns, end_ns] rows.
func (t *tracer) write(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"span_names\":[", workload)
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\"span_columns\":[\"name\",\"parent\",\"start_ns\",\"end_ns\"],\"roots\":[")
	var buf []byte
	first := true
	for id, rt := range t.roots {
		if rt == nil || rt.spans[0].end == 0 {
			continue
		}
		buf = buf[:0]
		if !first {
			buf = append(buf, ',')
		}
		first = false
		buf = append(buf, "\n{\"root\":"...)
		buf = strconv.AppendInt(buf, int64(id), 10)
		buf = append(buf, ",\"node\":"...)
		buf = strconv.AppendInt(buf, int64(rt.node), 10)
		buf = append(buf, ",\"spans\":["...)
		for i, s := range rt.spans {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '[')
			buf = strconv.AppendInt(buf, int64(s.name), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(s.parent), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, s.start, 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, s.end, 10)
			buf = append(buf, ']')
		}
		buf = append(buf, "]}"...)
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(sorted))*p)) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// median sorts v in place and returns its nearest-rank median.
func median(v []int64) int64 {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return percentile(v, 0.5)
}

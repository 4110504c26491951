package transport

import (
	"sync"
	"testing"
	"time"

	"lotec/internal/ids"
	"lotec/internal/stats"
	"lotec/internal/wire"
)

// groupNet builds a 4-node simnet where node 1 fans out to 2..4.
func groupNet(t *testing.T, rec *stats.Recorder) *SimNet {
	t.Helper()
	net := NewSimNet(4, testParams(), rec)
	for n := ids.NodeID(1); n <= 4; n++ {
		net.SetHandler(n, func(from ids.NodeID, m wire.Msg) wire.Msg {
			return echoObjs(m.(*wire.MultiFetchReq))
		})
	}
	return net
}

// echoObjs answers a fetch with one empty payload per requested object.
func echoObjs(req *wire.MultiFetchReq) *wire.MultiFetchResp {
	resp := &wire.MultiFetchResp{}
	for _, o := range req.Objs {
		resp.Objs = append(resp.Objs, wire.ObjPayload{Obj: o.Obj})
	}
	return resp
}

// fetchCalls is one fetch per site in sites, each naming the site as its
// object, so a reply tells which call it answers.
func fetchCalls(sites ...ids.NodeID) []GroupCall {
	var calls []GroupCall
	for _, n := range sites {
		calls = append(calls, GroupCall{To: n, Msg: &wire.MultiFetchReq{
			Objs: []wire.ObjPages{{Obj: ids.ObjectID(n), Pages: []ids.PageNum{0, 1}}},
		}})
	}
	return calls
}

// checkInOrder fails unless every result answers its own call.
func checkInOrder(t *testing.T, calls []GroupCall, results []GroupResult) {
	t.Helper()
	if len(results) != len(calls) {
		t.Fatalf("got %d results for %d calls", len(results), len(calls))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("call %d: %v", i, r.Err)
			continue
		}
		if got, want := r.Reply.(*wire.MultiFetchResp).Objs[0].Obj, ids.ObjectID(calls[i].To); got != want {
			t.Errorf("result %d answers obj %v, want %v", i, got, want)
		}
	}
}

// parkEnv is a non-simulator Env whose Call parks until want calls are in
// flight at once, then answers each with echoObjs.
type parkEnv struct {
	Env      // nil: CallGroup uses only Call and Now
	want     int
	mu       sync.Mutex
	inFlight int
	all      chan struct{}
}

func (e *parkEnv) Now() time.Duration { return 0 }

func (e *parkEnv) Call(to ids.NodeID, m wire.Msg) (wire.Msg, error) {
	e.mu.Lock()
	e.inFlight++
	if e.inFlight == e.want {
		close(e.all)
	}
	e.mu.Unlock()
	<-e.all
	return echoObjs(m.(*wire.MultiFetchReq)), nil
}

// TestCallGroupFansOutToEverySite holds every call of a six-site gather
// until all six are in flight: off the simulator, CallGroup must put the
// whole fan-out on the wire at once, with no bound below the site count.
func TestCallGroupFansOutToEverySite(t *testing.T) {
	env := &parkEnv{want: 6, all: make(chan struct{})}
	calls := fetchCalls(2, 3, 4, 5, 6, 7)
	done := make(chan []GroupResult, 1)
	go func() {
		results, _ := CallGroup(env, calls)
		done <- results
	}()
	select {
	case results := <-done:
		checkInOrder(t, calls, results)
	case <-time.After(5 * time.Second):
		env.mu.Lock()
		n := env.inFlight
		env.mu.Unlock()
		t.Fatalf("gather stalled with %d of %d calls in flight", n, len(calls))
	}
}

// TestCallGroupSpanIsSlowestCall checks the simulator's accounting: the
// calls go out one after another on the virtual clock, each recorded, and
// the reported span is the slowest call's round trip, not their sum.
func TestCallGroupSpanIsSlowestCall(t *testing.T) {
	rec := stats.NewRecorder()
	net := groupNet(t, rec)
	env := net.Env(1)
	calls := fetchCalls(2, 3, 4)
	var results []GroupResult
	var span, elapsed time.Duration
	env.Go(func() {
		start := env.Now()
		results, span = CallGroup(env, calls)
		elapsed = env.Now() - start
	})
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	checkInOrder(t, calls, results)
	// Three equal round trips: the virtual clock advances by three, the
	// span is one.
	if span <= 0 || elapsed != 3*span {
		t.Errorf("span %v over a sequential %v, want a third of it", span, elapsed)
	}
	if got := len(rec.Trace()); got != 6 {
		t.Errorf("trace has %d messages, want 6 (3 requests, 3 replies)", got)
	}
}

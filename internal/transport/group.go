package transport

import (
	"sync"
	"time"

	"lotec/internal/ids"
	"lotec/internal/wire"
)

// GroupCall is one RPC of a batched fan-out (the xfer gather/push stage
// issues one per source or destination site).
type GroupCall struct {
	To  ids.NodeID
	Msg wire.Msg
}

// GroupResult is the outcome of one GroupCall, in call order.
type GroupResult struct {
	Reply wire.Msg
	Err   error
}

// GroupCaller is implemented by Envs that have their own way of issuing a
// fan-out. SimNet implements it to keep the message trace deterministic: it
// issues the calls sequentially on the virtual clock and reports the
// slowest call as the group's elapsed time, the span of the calls had they
// all been in flight at once.
type GroupCaller interface {
	CallGroup(calls []GroupCall) ([]GroupResult, time.Duration)
}

// CallGroup issues the calls through env, all in flight at once, returning
// per-call results in call order and the elapsed wall-clock span of the
// whole group. The number of peer sites bounds the fan-out. Envs
// implementing GroupCaller (the simulator) use their own accounting;
// otherwise each call runs on its own goroutine (the TCP transport), and a
// one-call group runs inline on the caller.
func CallGroup(env Env, calls []GroupCall) ([]GroupResult, time.Duration) {
	if gc, ok := env.(GroupCaller); ok {
		return gc.CallGroup(calls)
	}
	if len(calls) == 0 {
		return nil, 0
	}
	start := env.Now()
	results := make([]GroupResult, len(calls))
	if len(calls) == 1 {
		results[0].Reply, results[0].Err = env.Call(calls[0].To, calls[0].Msg)
		return results, env.Now() - start
	}
	var wg sync.WaitGroup
	wg.Add(len(calls))
	for i := range calls {
		go func() {
			defer wg.Done()
			results[i].Reply, results[i].Err = env.Call(calls[i].To, calls[i].Msg)
		}()
	}
	wg.Wait()
	return results, env.Now() - start
}

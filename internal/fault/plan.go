package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"lotec/internal/ids"
	"lotec/internal/stats"
)

// Plan text grammar, used by the -fault-plan CLI flags and the chaos
// harness. A spec is either a named preset or a semicolon-separated list
// of clauses:
//
//	drop(p=0.05,kind=data,from=1,to=2,after=10ms,before=50ms,max=3)
//	delay(p=0.2,d=300us)
//	dup(p=0.1,kind=lock)
//	reorder(p=0.1,d=1ms)
//	crash(node=2,at=1ms,until=8ms)
//	partition(from=1,to=2,after=1ms,before=6ms)
//
// Kind groups: lock, release, fetch, push, data, grant, abort,
// retriable (the default for drop/dup), all.

// kindGroups names the message-kind sets a clause may scope to.
var kindGroups = map[string][]stats.MsgKind{
	"lock":    {stats.KindLockReq, stats.KindLockReply},
	"release": {stats.KindRelease, stats.KindReleaseReply},
	"fetch":   {stats.KindMultiFetchReq, stats.KindMultiPageData},
	"push":    {stats.KindPushReply, stats.KindMultiPush},
	"data":    {stats.KindMultiPageData},
	"grant":   {stats.KindGrant},
	"abort":   {stats.KindAbort},
	"replica": {
		stats.KindReplicate, stats.KindReplicateReply,
		stats.KindPromote, stats.KindPromoteReply,
		stats.KindEpoch, stats.KindEpochReply,
		stats.KindHandoff, stats.KindHandoffReply,
	},
	"retriable": RetriableKinds,
	"all":       nil,
}

// Presets returns the named fault plans the chaos harness sweeps and the
// CLIs accept. Every preset is recoverable: drops and duplicates touch
// only retriable RPC kinds, crashes are freeze-restart windows, so a
// run with unbounded retry always terminates.
func Presets() map[string]string {
	return map[string]string{
		"none":      "",
		"drop":      "drop(p=0.15)",
		"delay":     "delay(p=0.3,d=500us)",
		"dup":       "dup(p=0.2)",
		"reorder":   "reorder(p=0.15,d=2ms)",
		"partition": "partition(from=1,to=2,after=1ms,before=6ms);drop(p=0.05)",
		"crash":     "crash(node=2,at=1ms,until=8ms)",
		"chaos":     "drop(p=0.08);delay(p=0.15,d=300us);dup(p=0.08);reorder(p=0.08,d=1ms)",
	}
}

// Parse builds a Plan from a spec string (a preset name or clause list)
// and a seed. An empty spec yields a plan that injects nothing.
func Parse(spec string, seed uint64) (*Plan, error) {
	if named, ok := Presets()[strings.TrimSpace(spec)]; ok {
		spec = named
	}
	p := &Plan{Seed: seed}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, kvs, err := splitClause(clause)
		if err != nil {
			return nil, err
		}
		switch name {
		case "drop", "delay", "dup", "reorder":
			r, err := parseRule(name, kvs)
			if err != nil {
				return nil, fmt.Errorf("fault: %s: %w", clause, err)
			}
			p.Rules = append(p.Rules, r)
		case "crash":
			c, err := parseCrash(kvs)
			if err != nil {
				return nil, fmt.Errorf("fault: %s: %w", clause, err)
			}
			p.Crashes = append(p.Crashes, c)
		case "partition":
			pt, err := parsePartition(kvs)
			if err != nil {
				return nil, fmt.Errorf("fault: %s: %w", clause, err)
			}
			p.Partitions = append(p.Partitions, pt)
		default:
			return nil, fmt.Errorf("fault: unknown clause %q (want drop/delay/dup/reorder/crash/partition or a preset name)", name)
		}
	}
	return p, nil
}

func splitClause(clause string) (name string, kvs map[string]string, err error) {
	open := strings.IndexByte(clause, '(')
	if open < 0 || !strings.HasSuffix(clause, ")") {
		return "", nil, fmt.Errorf("fault: malformed clause %q (want name(k=v,...))", clause)
	}
	name = strings.TrimSpace(clause[:open])
	kvs = make(map[string]string)
	body := clause[open+1 : len(clause)-1]
	if strings.TrimSpace(body) == "" {
		return name, kvs, nil
	}
	for _, kv := range strings.Split(body, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return "", nil, fmt.Errorf("fault: malformed parameter %q in %q", kv, clause)
		}
		kvs[strings.TrimSpace(k)] = strings.TrimSpace(v)
	}
	return name, kvs, nil
}

func parseRule(name string, kvs map[string]string) (Rule, error) {
	r := Rule{Kinds: RetriableKinds} // default scope: traffic the engine can retry
	switch name {
	case "drop":
		r.Op = OpDrop
	case "delay":
		r.Op = OpDelay
		r.Kinds = nil // delaying anything is safe
	case "dup":
		r.Op = OpDuplicate
	case "reorder":
		r.Op = OpReorder
		r.Kinds = nil
	}
	for _, k := range sortedParamKeys(kvs) {
		v := kvs[k]
		var err error
		switch k {
		case "p":
			r.Prob, err = strconv.ParseFloat(v, 64)
		case "kind":
			kinds, ok := kindGroups[v]
			if !ok {
				return r, fmt.Errorf("unknown kind group %q", v)
			}
			r.Kinds = kinds
		case "from":
			r.From, err = parseNode(v)
		case "to":
			r.To, err = parseNode(v)
		case "after":
			r.After, err = time.ParseDuration(v)
		case "before":
			r.Before, err = time.ParseDuration(v)
		case "d":
			r.Delay, err = time.ParseDuration(v)
		case "max":
			r.MaxHits, err = strconv.Atoi(v)
		default:
			return r, fmt.Errorf("unknown parameter %q", k)
		}
		if err != nil {
			return r, fmt.Errorf("parameter %s=%q: %w", k, v, err)
		}
	}
	if r.Prob <= 0 || r.Prob > 1 {
		return r, fmt.Errorf("probability p=%v out of (0,1]", r.Prob)
	}
	if (r.Op == OpDelay || r.Op == OpReorder) && r.Delay <= 0 {
		return r, fmt.Errorf("%s needs d=<duration> > 0", name)
	}
	return r, nil
}

func parseCrash(kvs map[string]string) (Crash, error) {
	var c Crash
	for _, k := range sortedParamKeys(kvs) {
		v := kvs[k]
		var err error
		switch k {
		case "node":
			c.Node, err = parseNode(v)
		case "at":
			c.At, err = time.ParseDuration(v)
		case "until":
			c.Until, err = time.ParseDuration(v)
		default:
			return c, fmt.Errorf("unknown parameter %q", k)
		}
		if err != nil {
			return c, fmt.Errorf("parameter %s=%q: %w", k, v, err)
		}
	}
	if c.Node == 0 {
		return c, fmt.Errorf("crash needs node=<id>")
	}
	if c.Until != 0 && c.Until <= c.At {
		return c, fmt.Errorf("crash window until=%v must exceed at=%v", c.Until, c.At)
	}
	return c, nil
}

func parsePartition(kvs map[string]string) (Partition, error) {
	var p Partition
	for _, k := range sortedParamKeys(kvs) {
		v := kvs[k]
		var err error
		switch k {
		case "from":
			p.From, err = parseNode(v)
		case "to":
			p.To, err = parseNode(v)
		case "after":
			p.After, err = time.ParseDuration(v)
		case "before":
			p.Before, err = time.ParseDuration(v)
		default:
			return p, fmt.Errorf("unknown parameter %q", k)
		}
		if err != nil {
			return p, fmt.Errorf("parameter %s=%q: %w", k, v, err)
		}
	}
	if p.From == 0 && p.To == 0 {
		return p, fmt.Errorf("partition needs from= and/or to=")
	}
	return p, nil
}

// sortedParamKeys orders a clause's k=v parameters so parse errors (and
// any future order-sensitive validation) are reported deterministically.
func sortedParamKeys(kvs map[string]string) []string {
	out := make([]string, 0, len(kvs))
	for k := range kvs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func parseNode(v string) (ids.NodeID, error) {
	n, err := strconv.ParseInt(v, 10, 32)
	if err != nil {
		return 0, err
	}
	return ids.NodeID(n), nil
}

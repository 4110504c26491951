package sim

import "lotec/internal/stats"

// traceFingerprint captures everything about a run that the equivalence
// tests compare: the full message trace, the aggregate and per-object
// byte/message accounting, the protocol counters, and the transfer
// pipeline's volume/stage totals with Gather zeroed out — fingerprintCluster
// returns the gather wall-clock separately, for the tests that compare it.
type traceFingerprint struct {
	Trace     []stats.MsgRecord
	Totals    stats.ObjStats
	PerObject map[int64]stats.ObjStats
	Counters  stats.Counters
	Fetch     stats.TransferTotals
	Push      stats.TransferTotals
	Commits   int
	Failures  int
}

func fingerprintCluster(c *Cluster) (traceFingerprint, stats.TransferTotals) {
	rec := c.Recorder()
	fp := traceFingerprint{
		Trace:     rec.Trace(),
		Totals:    rec.Totals(),
		PerObject: make(map[int64]stats.ObjStats),
		Counters:  rec.Counters(),
		Fetch:     rec.TransferStages(stats.TransferFetch),
		Push:      rec.TransferStages(stats.TransferPush),
		Commits:   len(c.Results()) - len(c.FailedResults()),
		Failures:  len(c.FailedResults()),
	}
	for obj, s := range rec.PerObject() {
		fp.PerObject[int64(obj)] = s
	}
	gather := stats.TransferTotals{Gather: fp.Fetch.Gather + fp.Push.Gather}
	fp.Fetch.Gather = 0
	fp.Push.Gather = 0
	return fp, gather
}

package stats

import "time"

// Control-plane availability metrics. The route layer records one
// FailoverSample per primary-crash recovery (from the moment a call
// exhausted its retries to the first successful call against the promoted
// backup); the handoff state machine records one HandoffSample per
// completed online reshard. Both feed the BENCH ledger's failover_p99 and
// handoff-bytes gates.

// FailoverSample is one completed backup promotion as observed by a client.
type FailoverSample struct {
	// Latency spans unreachable-detection → first successful retried call.
	Latency time.Duration
}

// HandoffSample is one completed shard handoff.
type HandoffSample struct {
	Shard int
	// Bytes is the exported snapshot size shipped to the new owner.
	Bytes int
	// Latency spans seal → activation (new primary serving).
	Latency time.Duration
}

// AddFailover records one client-observed failover.
func (r *Recorder) AddFailover(s FailoverSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failovers = append(r.failovers, s)
}

// AddHandoff records one completed shard handoff.
func (r *Recorder) AddHandoff(s HandoffSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.handoffs = append(r.handoffs, s)
}

// AddEpochReject counts a request rejected for carrying a stale placement
// epoch (the client re-routes and retries).
func (r *Recorder) AddEpochReject() { r.epochRejects.Add(1) }

// AddPromotion counts a backup promotion executed at a host (shards
// promoted in one epoch bump count once).
func (r *Recorder) AddPromotion() { r.promotions.Add(1) }

// Failovers returns a copy of the recorded failover samples.
func (r *Recorder) Failovers() []FailoverSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]FailoverSample(nil), r.failovers...)
}

// Handoffs returns a copy of the recorded handoff samples.
func (r *Recorder) Handoffs() []HandoffSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]HandoffSample(nil), r.handoffs...)
}

// HandoffBytes sums the snapshot bytes shipped by every recorded handoff.
func (r *Recorder) HandoffBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, s := range r.handoffs {
		n += int64(s.Bytes)
	}
	return n
}

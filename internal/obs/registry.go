package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metric name registry. Instrumented layers use these names (optionally
// suffixed with a per-group label via GroupLabel) so dashboards and tests
// never guess at strings. Histogram values are nanoseconds unless the
// name says otherwise.
const (
	// MShardOpLatency (histogram, per-group label): end-to-end latency of
	// one Session operation against one shard, submission to quorum reply.
	MShardOpLatency = "shard_op_latency_ns"
	// MMultiGetFanout (histogram, unitless): number of distinct shards one
	// MultiGet fanned out to.
	MMultiGetFanout = "multiget_fanout"
	// MTxnPhasePrepare (histogram): 2PC phase-1 window — first prepare
	// sent to last vote collected.
	MTxnPhasePrepare = "txn_phase_prepare_ns"
	// MTxnPhaseDecide (histogram): vote collection to the attested
	// decision being minted and published.
	MTxnPhaseDecide = "txn_phase_decide_ns"
	// MTxnPhaseDrive (histogram): decision publication to the last
	// participant acknowledging phase 2.
	MTxnPhaseDrive = "txn_phase_drive_ns"
	// MRebalanceWindow (histogram): full rebalance handoff window —
	// freeze encoded to placement installed after the attested flip.
	MRebalanceWindow = "rebalance_window_ns"
	// MHealthTransitions (counter, per-group label): health-state
	// transitions observed by the monitor for one group.
	MHealthTransitions = "health_transitions"
	// MDegradedErrors (counter): operations refused with ErrShardDegraded.
	MDegradedErrors = "err_shard_degraded"
	// MUnroutableErrors (counter): operations failed with ErrUnroutable.
	MUnroutableErrors = "err_unroutable"
	// MRouteRetries (counter): routing retries (stale placement, migrating
	// ranges, view-change grace) across all sessions.
	MRouteRetries = "route_retries"
	// MExecBatch (histogram, unitless): requests per executed batch on a
	// replica.
	MExecBatch = "exec_batch_requests"
	// MSigVerifies (counter): signature/attestation verifications actually
	// performed (memo misses) on the consensus path.
	MSigVerifies = "sig_verifies_total"
	// MSigVerifyCacheHits (counter): verifications answered from the
	// verified-statement memo without touching crypto.
	MSigVerifyCacheHits = "sig_verify_cache_hits"
	// MVerifyPoolDepth (gauge): verifications queued or running in the
	// off-thread verify pool.
	MVerifyPoolDepth = "verify_pool_depth"
	// MQCSize (histogram, unitless): signer count of each assembled quorum
	// certificate.
	MQCSize = "qc_size"
	// MLeaseReads (counter): single-key reads answered on the leased fast
	// path, without consensus.
	MLeaseReads = "lease_reads_total"
	// MLeaseFallbacks (counter): leased-read attempts that fell back to the
	// consensus path (lease absent/expired, reply refused, group degraded).
	MLeaseFallbacks = "lease_fallbacks_total"
	// MLeaseRevocations (counter): lease deactivations (view transitions,
	// placement flips, range freezes, state rollbacks).
	MLeaseRevocations = "lease_revocations"
	// MLeaseReadLatency (histogram): end-to-end latency of reads answered on
	// the leased fast path.
	MLeaseReadLatency = "read_latency_lease_ns"
	// MConsensusReadLatency (histogram): end-to-end latency of single-key
	// reads that went through consensus (no lease, or after a fallback).
	MConsensusReadLatency = "read_latency_consensus_ns"
	// MExecBacklog (gauge, per-replica label): batches this replica has
	// committed but cannot execute yet because an earlier slot is missing.
	MExecBacklog = "exec_backlog_batches"
	// MStableLag (gauge, per-replica label): slots between the group's
	// stable checkpoint and this replica's last executed slot (0 when
	// execution is at or past it). A replica stranded behind a gap shows
	// this and MExecBacklog growing.
	MStableLag = "stable_lag_slots"
)

// GroupLabel qualifies a metric name with a per-group (per-shard) label.
func GroupLabel(name string, group int) string {
	return fmt.Sprintf("%s{group=%d}", name, group)
}

// ReplicaLabel qualifies a metric name with a per-replica label, plus the
// replica's group when it belongs to a shard group (group >= 0).
func ReplicaLabel(name string, group, replica int) string {
	if group < 0 {
		return fmt.Sprintf("%s{replica=%d}", name, replica)
	}
	return fmt.Sprintf("%s{group=%d,replica=%d}", name, group, replica)
}

// Registry hands out named counters, gauges, and histograms. Instruments
// are created on first use and live for the Observer's lifetime. A nil
// *Registry hands out nil instruments whose methods no-op.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

func newRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named monotonic counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Counter is a monotonically increasing counter. Nil-safe.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. Nil-safe.
type Gauge struct {
	mu sync.Mutex
	v  int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v += delta
	g.mu.Unlock()
}

// Value returns the gauge's current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// histSubBits sets the histogram's resolution: histSub = 2^histSubBits
// sub-buckets per power of two.
const histSubBits = 6

// histSub is the number of sub-buckets per power of two: log-linear
// buckets in the HDR style. A bucket spans at most v/histSub values at v,
// so a quantile read back as its bucket's upper bound is at most 1/histSub
// (≈1.6%) above the exact value, without storing samples.
const histSub = 1 << histSubBits

// histBuckets covers the full int64 range at histSub sub-buckets per
// power of two (histBuckets×8 bytes = 32 KB per histogram).
const histBuckets = 64 * histSub

// HistogramData is a histogram's contents as a plain value: int64
// observations in log-linear buckets, exact below histSub, then histSub
// sub-buckets per power of two (≤1/histSub relative error on quantiles),
// constant memory regardless of volume. It is not synchronized: a
// single-threaded recorder (the simulator) uses it directly, and
// Histogram guards one for concurrent use. Values compare with ==, copy
// freely, and merge exactly by summing buckets (Merge).
type HistogramData struct {
	buckets [histBuckets]uint64
	count   uint64
	sum     int64
	min     int64
	max     int64
}

// bucketFor maps a non-negative value to its bucket index: the value's
// top histSubBits+1 bits select the power of two and the sub-bucket.
func bucketFor(v int64) int {
	if v < histSub {
		return int(v)
	}
	major := bits.Len64(uint64(v)) // > histSubBits here
	shift := major - histSubBits - 1
	sub := int(v>>shift) & (histSub - 1)
	return (major-histSubBits)*histSub + sub
}

// bucketUpper returns the largest value mapping to bucket idx.
func bucketUpper(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	shift := idx/histSub - 1
	lower := int64(histSub+idx%histSub) << shift
	return lower + (int64(1) << shift) - 1
}

// nearestRank returns the 0-based rank of the p-th percentile among n > 0
// ordered observations under the nearest-rank rule, ⌈p/100·n⌉−1, clamped
// to [0, n−1].
func nearestRank(p float64, n uint64) uint64 {
	r := math.Ceil(p * float64(n) / 100)
	if r < 1 {
		return 0
	}
	if r >= float64(n) {
		return n - 1
	}
	return uint64(r) - 1
}

// Observe records one value (negative values clamp to zero).
func (d *HistogramData) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	d.buckets[bucketFor(v)]++
	if d.count == 0 || v < d.min {
		d.min = v
	}
	if v > d.max {
		d.max = v
	}
	d.count++
	d.sum += v
}

// ObserveDuration records a duration in nanoseconds.
func (d *HistogramData) ObserveDuration(x time.Duration) { d.Observe(int64(x)) }

// Count returns the number of observations.
func (d *HistogramData) Count() uint64 { return d.count }

// Max returns the largest observation; 0 with no data.
func (d *HistogramData) Max() int64 { return d.max }

// Mean returns the arithmetic mean of the observations; 0 with no data.
func (d *HistogramData) Mean() int64 {
	if d.count == 0 {
		return 0
	}
	return d.sum / int64(d.count)
}

// Quantile returns an upper-bound estimate of the p-th percentile
// (p in [0,100], nearest rank), clamped to the observed min/max; 0 with
// no data.
func (d *HistogramData) Quantile(p float64) int64 {
	if d.count == 0 {
		return 0
	}
	rank := nearestRank(p, d.count)
	var seen uint64
	for i, n := range d.buckets {
		seen += n
		if n > 0 && seen > rank {
			return min(max(bucketUpper(i), d.min), d.max)
		}
	}
	return d.max
}

// Merge adds every observation recorded in o to d. Buckets sum exactly,
// so d's quantiles afterwards are those of the pooled observations,
// within the same bucket error as either input.
func (d *HistogramData) Merge(o *HistogramData) {
	if o.count == 0 {
		return
	}
	for i, n := range o.buckets {
		d.buckets[i] += n
	}
	if d.count == 0 || o.min < d.min {
		d.min = o.min
	}
	d.max = max(d.max, o.max)
	d.count += o.count
	d.sum += o.sum
}

// since returns the observations d recorded after prev, an earlier copy of
// the same histogram. Their minimum is unknown (0 stands in); d's maximum
// bounds them.
func (d *HistogramData) since(prev *HistogramData) HistogramData {
	delta := HistogramData{count: d.count - prev.count, sum: d.sum - prev.sum, max: d.max}
	for i := range d.buckets {
		delta.buckets[i] = d.buckets[i] - prev.buckets[i]
	}
	return delta
}

// stats summarizes the data for export.
func (d *HistogramData) stats() HistogramStats {
	return HistogramStats{
		Count: d.count, Sum: d.sum, Mean: d.Mean(), Min: d.min, Max: d.max,
		P50: d.Quantile(50), P99: d.Quantile(99),
	}
}

// Histogram is a HistogramData safe for concurrent recording: the
// registry's instrument. Nil-safe.
type Histogram struct {
	mu sync.Mutex
	d  HistogramData
}

// Observe records one value (negative values clamp to zero).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.d.Observe(v)
	h.mu.Unlock()
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.d.count
}

// Max returns the largest observation; 0 with no data.
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.d.max
}

// Snapshot copies the histogram's contents.
func (h *Histogram) Snapshot() HistogramData {
	if h == nil {
		return HistogramData{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.d
}

// HistogramStats is one histogram's exported summary.
type HistogramStats struct {
	Count uint64 `json:"count"`
	Sum   int64  `json:"sum"`
	Mean  int64  `json:"mean"`
	Min   int64  `json:"min"`
	Max   int64  `json:"max"`
	P50   int64  `json:"p50"`
	P99   int64  `json:"p99"`
}

// MetricsSnapshot is a point-in-time copy of every instrument.
type MetricsSnapshot struct {
	Counters   map[string]uint64         `json:"counters,omitempty"`
	Gauges     map[string]int64          `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// Snapshot copies every instrument's current state.
func (r *Registry) Snapshot() MetricsSnapshot {
	var snap MetricsSnapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap.Counters = make(map[string]uint64, len(r.counters))
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	snap.Gauges = make(map[string]int64, len(r.gauges))
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	snap.Histograms = make(map[string]HistogramStats, len(r.histograms))
	for name, h := range r.histograms {
		h.mu.Lock()
		snap.Histograms[name] = h.d.stats()
		h.mu.Unlock()
	}
	return snap
}

// histogramNames returns the registered histogram names, sorted, so the
// rules engine enumerates per-group instruments deterministically.
func (r *Registry) histogramNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.histograms))
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// JSON renders the snapshot as JSON.
func (r *Registry) JSON() ([]byte, error) { return json.Marshal(r.Snapshot()) }

// String renders the snapshot as sorted "name value" lines.
func (s MetricsSnapshot) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "counter %-40s %d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "gauge   %-40s %d\n", n, s.Gauges[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "hist    %-40s n=%d mean=%d p50=%d p99=%d max=%d\n",
			n, h.Count, h.Mean, h.P50, h.P99, h.Max)
	}
	return b.String()
}

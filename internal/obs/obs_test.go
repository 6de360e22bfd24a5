package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
)

// fakeClock is a hand-advanced virtual clock for deterministic spans.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) fn() time.Duration { return c.now }

func newTestObserver(rate float64) (*Observer, *fakeClock) {
	clk := &fakeClock{}
	return New(Config{SampleRate: rate, TraceBuffer: 8, Clock: clk.fn}), clk
}

func TestNilObserverIsNoOp(t *testing.T) {
	var o *Observer
	if o.Tracer() != nil || o.Metrics() != nil || o.Audit() != nil || o.Journal() != nil {
		t.Fatal("nil observer must return nil surfaces")
	}
	sp := o.Tracer().StartTrace("layer", "op")
	sp.Annotate("note %d", 1)
	sp.Child("layer", "child").End()
	sp.End()
	if sp.TraceID() != 0 {
		t.Fatal("nil span should have trace id 0")
	}
	o.Metrics().Counter("c").Inc()
	o.Metrics().Gauge("g").Set(3)
	o.Metrics().Histogram("h").Observe(5)
	o.Audit().Access(AccessRecord{})
	o.Audit().Decision(DecisionRecord{})
	o.Journal().Record(EventEpochFlip, 0, "x")
	if got := o.Tracer().Dump(); got != "" {
		t.Fatalf("nil tracer dump = %q", got)
	}
	if tc := o.InstrumentTC(nil, "x"); tc != nil {
		t.Fatal("nil observer InstrumentTC should pass inner through")
	}
}

func TestSamplingIsDeterministic(t *testing.T) {
	o, _ := newTestObserver(0.25)
	var sampled []int
	for i := 0; i < 12; i++ {
		if sp := o.Tracer().StartTrace("l", "op"); sp != nil {
			sampled = append(sampled, i)
			sp.End()
		}
	}
	// Accumulator sampling at 1/4: requests 3, 7, 11 are sampled.
	want := []int{3, 7, 11}
	if len(sampled) != len(want) {
		t.Fatalf("sampled %v, want %v", sampled, want)
	}
	for i := range want {
		if sampled[i] != want[i] {
			t.Fatalf("sampled %v, want %v", sampled, want)
		}
	}
	if o.Tracer().Started() != 12 || o.Tracer().Sampled() != 3 {
		t.Fatalf("started=%d sampled=%d", o.Tracer().Started(), o.Tracer().Sampled())
	}
}

func TestSpanTreeAndDump(t *testing.T) {
	o, clk := newTestObserver(1.0)
	root := o.Tracer().StartTrace("session", "put")
	clk.now = 10 * time.Microsecond
	child := root.Child("consensus", "submit")
	child.Annotate("seq %d view %d", 7, 0)
	clk.now = 30 * time.Microsecond
	child.End()
	root.End()

	traces := o.Tracer().Snapshot()
	if len(traces) != 1 {
		t.Fatalf("got %d traces", len(traces))
	}
	tr := traces[0]
	if !tr.Complete() {
		t.Fatal("trace should be complete")
	}
	if len(tr.Spans) != 2 {
		t.Fatalf("got %d spans", len(tr.Spans))
	}
	if tr.Spans[1].Parent != tr.Spans[0].ID {
		t.Fatal("child should point at root")
	}
	if got := tr.Spans[1].EndNs - tr.Spans[1].StartNs; got != int64(20*time.Microsecond) {
		t.Fatalf("child duration = %dns", got)
	}
	dump := o.Tracer().Dump()
	for _, want := range []string{"trace 1", "[session] put", "[consensus] submit", "seq 7 view 0"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
	raw, err := o.Tracer().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded []TraceRecord
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("trace JSON does not round-trip: %v", err)
	}
}

func TestTraceRingEviction(t *testing.T) {
	o, _ := newTestObserver(1.0)
	for i := 0; i < 20; i++ {
		o.Tracer().StartTrace("l", "op").End()
	}
	traces := o.Tracer().Snapshot()
	if len(traces) != 8 {
		t.Fatalf("ring should cap at 8, got %d", len(traces))
	}
	if traces[0].ID != 13 || traces[7].ID != 20 {
		t.Fatalf("ring should keep newest traces, got ids %d..%d", traces[0].ID, traces[7].ID)
	}
}

func TestIncompleteTraceReported(t *testing.T) {
	o, _ := newTestObserver(1.0)
	root := o.Tracer().StartTrace("session", "op")
	root.Child("consensus", "submit") // never ended
	root.End()
	if o.Tracer().Snapshot()[0].Complete() {
		t.Fatal("trace with an open child must not report complete")
	}
}

func TestRegistryInstruments(t *testing.T) {
	o, _ := newTestObserver(1.0)
	m := o.Metrics()
	m.Counter(MDegradedErrors).Inc()
	m.Counter(MDegradedErrors).Add(2)
	m.Gauge("inflight").Set(4)
	m.Gauge("inflight").Add(-1)
	h := m.Histogram(GroupLabel(MShardOpLatency, 2))
	for _, v := range []int64{100, 200, 300, 400} {
		h.Observe(v)
	}
	if got := m.Counter(MDegradedErrors).Value(); got != 3 {
		t.Fatalf("counter = %d", got)
	}
	if got := m.Gauge("inflight").Value(); got != 3 {
		t.Fatalf("gauge = %d", got)
	}
	snap := m.Snapshot()
	hs, ok := snap.Histograms["shard_op_latency_ns{group=2}"]
	if !ok {
		t.Fatalf("snapshot missing labeled histogram: %v", snap.Histograms)
	}
	if hs.Count != 4 || hs.Min != 100 || hs.Max != 400 {
		t.Fatalf("hist stats = %+v", hs)
	}
	if snap.String() == "" {
		t.Fatal("snapshot string empty")
	}
}

// TestHistogramEdgeCases covers the empty, empty-merge and single-sample
// queries the harness can hit on short or degraded runs.
func TestHistogramEdgeCases(t *testing.T) {
	var h HistogramData
	if h.Quantile(50) != 0 || h.Quantile(99) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	var merged HistogramData
	merged.Merge(&h)
	if merged.Count() != 0 || merged.Quantile(99) != 0 {
		t.Fatal("merging an empty histogram must leave zeros")
	}
	h.Observe(42)
	for _, p := range []float64{0.1, 50, 99, 100} {
		if got := h.Quantile(p); got != 42 {
			t.Fatalf("single-sample p%v = %d, want 42", p, got)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h2 HistogramData
	for v := int64(1); v <= 1000; v++ {
		h2.Observe(v)
	}
	// Log-linear buckets bound relative error to 1/histSub, upward.
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 500}, {99, 990}, {100, 1000}} {
		if got := h2.Quantile(c.p); got < c.want || got > c.want+c.want/histSub {
			t.Fatalf("p%v of 1..1000 = %d, want %d within 1/%d", c.p, got, c.want, histSub)
		}
	}
	if h2.Max() != 1000 {
		t.Fatalf("max = %d", h2.Max())
	}
}

// TestHistogramNearestRank checks that quantiles follow the nearest-rank
// rule (rank ⌈p/100·n⌉−1) in both the cumulative and the windowed reader,
// and that a millisecond-scale median reads back within 1/histSub.
func TestHistogramNearestRank(t *testing.T) {
	var h HistogramData
	for i := 0; i < 99; i++ {
		h.Observe(1000)
	}
	h.Observe(1_000_000)
	if got := h.Quantile(99); got > 1000+1000/histSub {
		t.Fatalf("p99 of 99×1000 + 1×1e6 = %d, want ≈1000 (rank 99 of 100)", got)
	}
	if got := h.Quantile(100); got != 1_000_000 {
		t.Fatalf("p100 = %d, want the maximum", got)
	}
	recent := h.since(&HistogramData{})
	if got := recent.Quantile(99); got > 1000+1000/histSub {
		t.Fatalf("windowed p99 = %d, want ≈1000", got)
	}

	var ms HistogramData
	for _, v := range []time.Duration{2300 * time.Microsecond, 2400 * time.Microsecond, 2500 * time.Microsecond} {
		ms.ObserveDuration(v)
	}
	const want = int64(2400 * time.Microsecond)
	if got := ms.Quantile(50); got < want || got > want+want/histSub {
		t.Fatalf("p50 of {2.3, 2.4, 2.5} ms = %v, want 2.4 ms within 1/%d", time.Duration(got), histSub)
	}

	var ladder HistogramData
	for i := 1; i <= 100; i++ {
		ladder.ObserveDuration(time.Duration(i) * time.Millisecond)
	}
	for _, p := range []float64{50, 99, 100} {
		want := int64(time.Duration(p) * time.Millisecond)
		if got := ladder.Quantile(p); got < want || got > want+want/histSub {
			t.Fatalf("p%v of 1..100 ms = %v, want %v", p, time.Duration(got), time.Duration(want))
		}
	}
}

// TestHistogramMerge checks that merging sums counts and buckets exactly:
// the merged quantiles and mean are those of the pooled observations.
func TestHistogramMerge(t *testing.T) {
	var a, b, m HistogramData
	for i := 0; i < 10; i++ {
		a.ObserveDuration(time.Millisecond)
	}
	for i := 0; i < 30; i++ {
		b.ObserveDuration(3 * time.Millisecond)
	}
	m.Merge(&a)
	m.Merge(&b)
	m.Merge(&HistogramData{})
	if m.Count() != 40 {
		t.Fatalf("merged count = %d, want 40", m.Count())
	}
	// Pooled mean: (10*1ms + 30*3ms)/40 = 2.5ms.
	if got := time.Duration(m.Mean()); got != 2500*time.Microsecond {
		t.Fatalf("merged mean = %v", got)
	}
	if got := m.Quantile(99); got != int64(3*time.Millisecond) {
		t.Fatalf("merged p99 = %v", time.Duration(got))
	}
	if got := m.Quantile(10); got < int64(time.Millisecond) || got > int64(time.Millisecond)+int64(time.Millisecond)/histSub {
		t.Fatalf("merged p10 = %v, want ≈1ms", time.Duration(got))
	}
	if a.Count() != 10 || b.Count() != 30 {
		t.Fatal("merge must not change its input")
	}
	// Merging a copy of a live histogram's contents pools it the same way.
	var live Histogram
	live.ObserveDuration(time.Millisecond)
	snap := live.Snapshot()
	m.Merge(&snap)
	if m.Count() != 41 || live.Count() != 1 {
		t.Fatalf("merged snapshot: %d, live %d", m.Count(), live.Count())
	}
}

// TestHistogramBucketMath checks the bucket layout over edge and random
// values: every value lies inside its bucket, and a bucket is at most
// v/histSub wide — the 1/histSub error bound.
func TestHistogramBucketMath(t *testing.T) {
	vals := []int64{0, 1, histSub - 1, histSub, histSub + 1, 100, 1<<40 + 12345, math.MaxInt64}
	for s := 1; s < 63; s++ {
		vals = append(vals, int64(1)<<s-1, int64(1)<<s, int64(1)<<s+1)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		vals = append(vals, rng.Int63()>>rng.Intn(63))
	}
	for _, v := range vals {
		idx := bucketFor(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("value %d maps to bucket %d outside [0, %d)", v, idx, histBuckets)
		}
		upper := bucketUpper(idx)
		if v > upper {
			t.Fatalf("value %d above its bucket upper %d (idx %d)", v, upper, idx)
		}
		lower := int64(0)
		if idx > 0 {
			lower = bucketUpper(idx-1) + 1
		}
		if v < lower {
			t.Fatalf("value %d below its bucket lower %d (idx %d)", v, lower, idx)
		}
		if upper-lower > v/histSub {
			t.Fatalf("bucket %d of value %d spans [%d, %d], wider than v/%d", idx, v, lower, upper, histSub)
		}
	}
}

func digestOf(b byte) types.Digest {
	var d types.Digest
	d[0] = b
	return d
}

func TestAuditMonotonicityAlarms(t *testing.T) {
	o, _ := newTestObserver(1.0)
	a := o.Audit()
	rec := AccessRecord{Kind: AccessAppendF, Host: 1, Namespace: 2, Counter: 0, Epoch: 0, Digest: digestOf(1)}

	rec.Value = 1
	a.Access(rec)
	rec.Value = 2
	a.Access(rec)
	if len(a.Alarms()) != 0 {
		t.Fatalf("clean advance raised alarms: %v", a.Alarms())
	}

	// A rollback re-mints value 2.
	rec.Value = 2
	a.Access(rec)
	alarms := a.Alarms()
	if len(alarms) != 1 || !strings.Contains(alarms[0].Message, "counter regression") {
		t.Fatalf("want counter-regression alarm, got %v", alarms)
	}

	// Epoch bump resets the value legally.
	rec.Epoch, rec.Value = 1, 1
	a.Access(rec)
	// Epoch regression alarms.
	rec.Epoch = 0
	a.Access(rec)
	alarms = a.Alarms()
	if len(alarms) != 2 || !strings.Contains(alarms[1].Message, "epoch regression") {
		t.Fatalf("want epoch-regression alarm, got %v", alarms)
	}

	// Distinct hosts own distinct counters: host 2 minting value 1 is fine.
	a.Access(AccessRecord{Host: 2, Namespace: 2, Counter: 0, Value: 1})
	if len(a.Alarms()) != 2 {
		t.Fatalf("cross-host access should not alarm: %v", a.Alarms())
	}
	if a.TotalAccesses() != 6 {
		t.Fatalf("total = %d", a.TotalAccesses())
	}
}

func TestAuditExactlyOneAccessPerDecision(t *testing.T) {
	o, _ := newTestObserver(1.0)
	a := o.Audit()
	a.RegisterDecisionNamespace(0xFFFF)

	d1 := digestOf(10)
	a.Access(AccessRecord{Host: 0, Namespace: 0xFFFF, Value: 1, Digest: d1})
	a.Decision(DecisionRecord{Kind: DecisionTxn, TxID: 1, Commit: true, Digest: d1, Value: 1})
	if len(a.Alarms()) != 0 {
		t.Fatalf("clean decision raised alarms: %v", a.Alarms())
	}
	if a.AccessesForDigest(d1) != 1 {
		t.Fatalf("accesses for digest = %d", a.AccessesForDigest(d1))
	}

	// A decision whose digest was never attested.
	a.Decision(DecisionRecord{Kind: DecisionTxn, TxID: 2, Commit: false, Digest: digestOf(11)})
	alarms := a.Alarms()
	if len(alarms) != 1 || !strings.Contains(alarms[0].Message, "0 attested accesses") {
		t.Fatalf("want missing-access alarm, got %v", alarms)
	}

	// Equivocation: the same txid decided again with a different outcome.
	d3 := digestOf(12)
	a.Access(AccessRecord{Host: 0, Namespace: 0xFFFF, Value: 2, Digest: d3})
	a.Decision(DecisionRecord{Kind: DecisionTxn, TxID: 1, Commit: false, Digest: d3, Value: 2})
	alarms = a.Alarms()
	if len(alarms) != 2 || !strings.Contains(alarms[1].Message, "equivocation") {
		t.Fatalf("want equivocation alarm, got %v", alarms)
	}

	// Replay: the same digest attested twice.
	a.Access(AccessRecord{Host: 0, Namespace: 0xFFFF, Value: 3, Digest: d1})
	alarms = a.Alarms()
	if len(alarms) != 3 || !strings.Contains(alarms[2].Message, "attested 2 times") {
		t.Fatalf("want replay alarm, got %v", alarms)
	}

	// Placement decisions are keyed separately from txn decisions.
	dp := digestOf(13)
	a.Access(AccessRecord{Host: 0, Namespace: 0xFFFF, Value: 4, Digest: dp})
	a.Decision(DecisionRecord{Kind: DecisionPlacement, TxID: 1, Commit: true, Epoch: 2, Digest: dp, Value: 4})
	if len(a.Alarms()) != 3 {
		t.Fatalf("placement decision id may reuse a txn id: %v", a.Alarms())
	}
	if !strings.Contains(a.String(), "ALARM") {
		t.Fatal("audit summary should list alarms")
	}
}

func TestInstrumentedTCDecomposesNamespaces(t *testing.T) {
	o, _ := newTestObserver(1.0)
	auth := trusted.NewHMACAuthority(1, 1)
	raw := trusted.New(trusted.Config{Host: 0, Attestor: auth.For(0)})
	tc := o.InstrumentTC(raw, "replica")
	shardView := trusted.Namespaced(tc, 3)

	att, err := shardView.AppendF(0, digestOf(1))
	if err != nil {
		t.Fatal(err)
	}
	if att.Counter != 0 {
		t.Fatalf("namespaced view should return local counter id, got %d", att.Counter)
	}
	snap := raw.Snapshot() // counter at value 1
	if _, err := shardView.AppendF(0, digestOf(2)); err != nil {
		t.Fatal(err)
	}

	recs := o.Audit().Records()
	if len(recs) != 2 {
		t.Fatalf("got %d access records", len(recs))
	}
	for i, r := range recs {
		if r.Namespace != 3 || r.Counter != 0 || r.Layer != "replica" {
			t.Fatalf("record %d = %+v", i, r)
		}
		if r.Value != uint64(i+1) {
			t.Fatalf("record %d value = %d", i, r.Value)
		}
	}
	if len(o.Audit().Alarms()) != 0 {
		t.Fatalf("honest component alarmed: %v", o.Audit().Alarms())
	}

	// A rollback on the raw component followed by a re-mint trips the
	// checker even though Restore itself is unrecorded.
	if err := raw.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := shardView.AppendF(0, digestOf(9)); err != nil {
		t.Fatal(err)
	}
	alarms := o.Audit().Alarms()
	if len(alarms) != 1 || !strings.Contains(alarms[0].Message, "counter regression") {
		t.Fatalf("rollback should raise a regression alarm, got %v", alarms)
	}
}

func TestJournalCausalOrderAgainstAudit(t *testing.T) {
	o, clk := newTestObserver(1.0)
	o.Audit().Access(AccessRecord{Host: 0, Namespace: 1, Value: 1})
	clk.now = time.Millisecond
	o.Journal().Record(EventEpochFlip, -1, "epoch %d installed", 2)
	o.Audit().Access(AccessRecord{Host: 0, Namespace: 1, Value: 2})
	o.Journal().Record(EventHealthTransition, 1, "healthy -> stalled")

	evs := o.Journal().Events()
	recs := o.Audit().Records()
	if len(evs) != 2 || len(recs) != 2 {
		t.Fatalf("events=%d records=%d", len(evs), len(recs))
	}
	// Shared sequence: access(1) < flip < access(2) < transition.
	if !(recs[0].Seq < evs[0].Seq && evs[0].Seq < recs[1].Seq && recs[1].Seq < evs[1].Seq) {
		t.Fatalf("causal order broken: accesses %d,%d events %d,%d",
			recs[0].Seq, recs[1].Seq, evs[0].Seq, evs[1].Seq)
	}
	if evs[0].At != time.Millisecond {
		t.Fatalf("event timestamp = %v", evs[0].At)
	}
	if o.Journal().Total() != 2 {
		t.Fatalf("journal total = %d", o.Journal().Total())
	}
	if s := o.Journal().String(); !strings.Contains(s, "epoch-flip") || !strings.Contains(s, "health-transition") {
		t.Fatalf("journal string = %q", s)
	}
}

func TestVirtualClockSwap(t *testing.T) {
	o := New(Config{SampleRate: 1})
	var virtual time.Duration = 5 * time.Second
	o.SetClock(func() time.Duration { return virtual })
	if o.Now() != 5*time.Second {
		t.Fatalf("now = %v", o.Now())
	}
	sp := o.Tracer().StartTrace("sim", "op")
	virtual = 6 * time.Second
	sp.End()
	tr := o.Tracer().Snapshot()[0]
	if tr.Spans[0].StartNs != int64(5*time.Second) || tr.Spans[0].EndNs != int64(6*time.Second) {
		t.Fatalf("span times = %d..%d", tr.Spans[0].StartNs, tr.Spans[0].EndNs)
	}
}

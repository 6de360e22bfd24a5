package shard

import (
	"testing"
	"time"

	"flexitrust/internal/sim"
)

// TestAggregatePoolsLatency checks that cluster latency is read from the
// pooled operations of every group: a small slow group must not drag the
// median to a completion-weighted mean of medians, nor set the p99 alone.
func TestAggregatePoolsLatency(t *testing.T) {
	var fast, slow sim.Results
	for i := 0; i < 1000; i++ {
		fast.Latency.ObserveDuration(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		slow.Latency.ObserveDuration(100 * time.Millisecond)
	}
	for _, r := range []*sim.Results{&fast, &slow} {
		r.Completed = r.Latency.Count()
		r.MeanLat = time.Duration(r.Latency.Mean())
		r.P50Lat = time.Duration(r.Latency.Quantile(50))
		r.P99Lat = time.Duration(r.Latency.Quantile(99))
	}
	agg := Aggregate([]sim.Results{fast, slow})
	if agg.Completed != 1010 || agg.Latency.Count() != 1010 {
		t.Fatalf("completed %d, histogram count %d, want 1010", agg.Completed, agg.Latency.Count())
	}
	near1ms := func(d time.Duration) bool { return d >= time.Millisecond && d <= time.Millisecond+time.Millisecond/64 }
	if !near1ms(agg.P50Lat) || !near1ms(agg.P99Lat) {
		t.Fatalf("pooled p50 %v, p99 %v: want both ≈1ms", agg.P50Lat, agg.P99Lat)
	}
	// Pooled mean: (1000×1ms + 10×100ms)/1010.
	if want := (1000*time.Millisecond + 10*100*time.Millisecond) / 1010; agg.MeanLat != want {
		t.Fatalf("pooled mean %v, want %v", agg.MeanLat, want)
	}
	if empty := Aggregate(nil); empty.Completed != 0 || empty.P99Lat != 0 {
		t.Fatalf("empty aggregate: %+v", empty)
	}
}

package harness

import (
	"encoding/json"
	"fmt"

	"flexitrust/internal/obs"
)

// BENCH trajectory: a small, fixed matrix of the repo's headline
// experiments — shard scaling, cross-shard transactions, leased reads A/B,
// live rebalancing and primary failover — run at pinned seeds and scales and emitted as a
// machine-readable baseline (BENCH_baseline.json at the repo root,
// regenerated with `benchrunner -bench-out`). The file records throughput,
// p50/p99 latency and attested-access counts per configuration so a future
// change can diff itself against the recorded numbers; ValidateBench checks
// the schema plus the attested-access invariants every entry must satisfy
// regardless of machine speed (exactly one access per placement change,
// one per transaction decision).

// BenchSchema identifies the baseline file format.
const BenchSchema = "flexitrust-bench/v1"

// BenchEntry is one measured configuration of the baseline matrix. Latency
// fields are nanoseconds; absolute numbers are machine-dependent, while the
// attested-access fields are exact invariants.
type BenchEntry struct {
	// Experiment is "shard", "txn", "rebalance", "failover", "reads" or
	// "window".
	Experiment string `json:"experiment"`
	Protocol   string `json:"protocol"`
	Shards     int    `json:"shards"`
	// AttestWindow is the windowed-attestation window size (window only):
	// 1 is the per-batch baseline arm, >1 the amortized arm.
	AttestWindow int `json:"attest_window,omitempty"`
	// TxnFraction is the cross-shard transaction fraction (txn only).
	TxnFraction float64 `json:"txn_fraction,omitempty"`
	// Lease marks the lease-on arm of the reads A/B; LeaseReads counts the
	// reads the fast path served inside the measurement window and
	// LeaseReadP50Ns their median latency (reads only).
	Lease          bool   `json:"lease,omitempty"`
	LeaseReads     uint64 `json:"lease_reads,omitempty"`
	LeaseReadP50Ns int64  `json:"lease_read_p50_ns,omitempty"`
	// Throughput is committed operations (shard), attested transaction
	// decisions (txn) or background writes (rebalance/failover) per second.
	Throughput float64 `json:"throughput_per_s"`
	P50Ns      int64   `json:"p50_ns,omitempty"`
	P99Ns      int64   `json:"p99_ns,omitempty"`
	Completed  uint64  `json:"completed"`
	// AttestedAccesses counts trusted-counter accesses: the whole-run
	// consensus total for shard entries (via the audit stream), the
	// decision total for txn entries (== Decisions), and the placement
	// change's cost for rebalance/failover entries (exactly 1).
	AttestedAccesses uint64 `json:"attested_accesses"`
	// Decisions counts attested 2PC decisions (txn only).
	Decisions uint64 `json:"decisions,omitempty"`
	// MigrationWindowNs is freeze→flip (rebalance only).
	MigrationWindowNs int64 `json:"migration_window_ns,omitempty"`
	// UnavailableForNs is crash→first probe completion (failover only).
	UnavailableForNs int64 `json:"unavailable_for_ns,omitempty"`
}

// BenchBaseline is the recorded perf baseline: the schema tag, the run's
// pinned parameters and one entry per configuration.
type BenchBaseline struct {
	Schema string `json:"schema"`
	// Scale is the window divisor the matrix ran at (see Scale); Seed the
	// master seed every configuration derived its randomness from.
	Scale   int          `json:"scale"`
	Seed    int64        `json:"seed"`
	Entries []BenchEntry `json:"entries"`
}

// benchProtocols is the baseline's protocol pair: the paper's headline
// protocol against the strongest host-sequenced baseline.
var benchProtocols = [2]string{"Flexi-BFT", "MinBFT"}

// CollectBench runs the baseline matrix at the given scale and the
// harness's pinned default seed. Failover runs at scale min(scale, 8): its
// crash/election/evacuation sequence needs the longer window to complete.
func CollectBench(scale Scale) (*BenchBaseline, error) {
	b := &BenchBaseline{Schema: BenchSchema, Scale: int(scale), Seed: DefaultOptions().Seed}

	for _, proto := range benchProtocols {
		for _, shards := range []int{1, 4} {
			// The observer's audit stream counts every consensus-path
			// attested access across the shared kernel. The exporter and
			// rules engine run alongside it so the baseline measures the
			// full operator surface; a clean run must fire zero alerts.
			o := obs.New(obs.Config{})
			rules := obs.NewRules(o, obs.RulesConfig{})
			res, err := ShardScalingPointObserved(proto, shards, scale, o)
			if err != nil {
				return nil, fmt.Errorf("bench shard %s/S=%d: %w", proto, shards, err)
			}
			rules.Evaluate()
			if alerts := rules.Alerts(); len(alerts) != 0 {
				return nil, fmt.Errorf("bench shard %s/S=%d: %d alerts on a clean baseline (first: %s)",
					proto, shards, len(alerts), alerts[0].Message)
			}
			if ex := (&obs.Exporter{O: o, Rules: rules}).Snapshot(); ex.Schema != obs.ExportSchema {
				return nil, fmt.Errorf("bench shard %s/S=%d: export schema %q", proto, shards, ex.Schema)
			}
			b.Entries = append(b.Entries, BenchEntry{
				Experiment: "shard", Protocol: proto, Shards: shards,
				Throughput: res.Throughput,
				P50Ns:      res.P50Lat.Nanoseconds(), P99Ns: res.P99Lat.Nanoseconds(),
				Completed:        res.Completed,
				AttestedAccesses: o.Audit().TotalAccesses(),
			})
		}
	}

	for _, proto := range benchProtocols {
		const txnShards, txnFraction = 4, 0.2
		tp, err := TxnScalingPoint(proto, txnShards, txnFraction, scale)
		if err != nil {
			return nil, fmt.Errorf("bench txn %s: %w", proto, err)
		}
		b.Entries = append(b.Entries, BenchEntry{
			Experiment: "txn", Protocol: proto, Shards: txnShards, TxnFraction: txnFraction,
			Throughput: tp.Txn.Throughput,
			P50Ns:      tp.Txn.P50Lat.Nanoseconds(), P99Ns: tp.Txn.P99Lat.Nanoseconds(),
			Completed:        tp.Txn.Completed,
			AttestedAccesses: tp.Txn.TCAccesses,
			Decisions:        tp.Txn.Decisions,
		})
	}

	for _, proto := range benchProtocols {
		rp, err := FigRebalancePoint(proto, 2, scale)
		if err != nil {
			return nil, fmt.Errorf("bench rebalance %s: %w", proto, err)
		}
		b.Entries = append(b.Entries, BenchEntry{
			Experiment: "rebalance", Protocol: proto, Shards: 2,
			Throughput:        rp.WriteThroughput,
			Completed:         rp.Reb.PreCompleted + rp.Reb.DipCompleted + rp.Reb.PostCompleted,
			AttestedAccesses:  rp.Reb.TCAccesses,
			MigrationWindowNs: rp.Reb.MigrationWindow.Nanoseconds(),
		})
	}

	for _, proto := range benchProtocols {
		const readsShards = 4
		for _, lease := range []bool{false, true} {
			// Same operator-surface discipline as the shard entries: the
			// leased fast path must keep the audit stream and the alert
			// rules silent — a lease grant is one more attested access, not
			// a new alarm class.
			o := obs.New(obs.Config{})
			rules := obs.NewRules(o, obs.RulesConfig{})
			res, err := ReadLeasePointObserved(proto, readsShards, scale, lease, o)
			if err != nil {
				return nil, fmt.Errorf("bench reads %s lease=%v: %w", proto, lease, err)
			}
			rules.Evaluate()
			if alerts := rules.Alerts(); len(alerts) != 0 {
				return nil, fmt.Errorf("bench reads %s lease=%v: %d alerts on a clean run (first: %s)",
					proto, lease, len(alerts), alerts[0].Message)
			}
			if alarms := o.Audit().Alarms(); len(alarms) != 0 {
				return nil, fmt.Errorf("bench reads %s lease=%v: %d audit alarms on a clean run",
					proto, lease, len(alarms))
			}
			b.Entries = append(b.Entries, BenchEntry{
				Experiment: "reads", Protocol: proto, Shards: readsShards, Lease: lease,
				Throughput: res.Throughput,
				P50Ns:      res.P50Lat.Nanoseconds(), P99Ns: res.P99Lat.Nanoseconds(),
				Completed:        res.Completed,
				AttestedAccesses: o.Audit().TotalAccesses(),
				LeaseReads:       res.LeaseReads,
				LeaseReadP50Ns:   res.LeaseReadP50.Nanoseconds(),
			})
		}
	}

	for _, proto := range windowExpProtocols {
		for _, w := range windowExpWindows {
			// WindowPoint already fails on audit alarms, so a recorded
			// entry is alarm-free by construction.
			res, accesses, err := WindowPoint(proto, 1, scale, w)
			if err != nil {
				return nil, fmt.Errorf("bench window %s/W=%d: %w", proto, w, err)
			}
			b.Entries = append(b.Entries, BenchEntry{
				Experiment: "window", Protocol: proto, Shards: 1, AttestWindow: w,
				Throughput: res.Throughput,
				P50Ns:      res.P50Lat.Nanoseconds(), P99Ns: res.P99Lat.Nanoseconds(),
				Completed:        res.Completed,
				AttestedAccesses: accesses,
			})
		}
	}

	foScale := scale
	if foScale > 8 {
		foScale = 8
	}
	for _, proto := range benchProtocols {
		fp, err := FigFailoverPoint(proto, 2, foScale)
		if err != nil {
			return nil, fmt.Errorf("bench failover %s: %w", proto, err)
		}
		b.Entries = append(b.Entries, BenchEntry{
			Experiment: "failover", Protocol: proto, Shards: 2,
			Throughput:       fp.WriteThroughput,
			Completed:        fp.Fo.PreCompleted + fp.Fo.DipCompleted + fp.Fo.PostCompleted,
			AttestedAccesses: fp.Fo.TCAccesses,
			UnavailableForNs: fp.Fo.UnavailableFor.Nanoseconds(),
		})
	}

	return b, nil
}

// JSON renders the baseline in the checked-in format (indented, trailing
// newline).
func (b *BenchBaseline) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ValidateBench parses a baseline file and checks the schema plus the
// machine-independent invariants: known experiment names, positive
// throughput, exactly one attested access per placement change, and
// decisions == attested accesses for the transaction entries.
func ValidateBench(data []byte) (*BenchBaseline, error) {
	var b BenchBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench baseline: %w", err)
	}
	if b.Schema != BenchSchema {
		return nil, fmt.Errorf("bench baseline: schema %q, want %q", b.Schema, BenchSchema)
	}
	if len(b.Entries) == 0 {
		return nil, fmt.Errorf("bench baseline: no entries")
	}
	for i, e := range b.Entries {
		where := fmt.Sprintf("entry %d (%s/%s/S=%d)", i, e.Experiment, e.Protocol, e.Shards)
		switch e.Experiment {
		case "shard", "txn", "rebalance", "failover", "reads", "window":
		default:
			return nil, fmt.Errorf("bench baseline: %s: unknown experiment", where)
		}
		if e.Protocol == "" {
			return nil, fmt.Errorf("bench baseline: %s: empty protocol", where)
		}
		if e.Shards <= 0 {
			return nil, fmt.Errorf("bench baseline: %s: shards %d", where, e.Shards)
		}
		if e.Throughput <= 0 {
			return nil, fmt.Errorf("bench baseline: %s: throughput %.1f", where, e.Throughput)
		}
		switch e.Experiment {
		case "shard":
			if e.AttestedAccesses == 0 {
				return nil, fmt.Errorf("bench baseline: %s: zero attested accesses over a full run", where)
			}
		case "txn":
			if e.Decisions == 0 || e.AttestedAccesses != e.Decisions {
				return nil, fmt.Errorf("bench baseline: %s: %d attested accesses for %d decisions, want equal and nonzero",
					where, e.AttestedAccesses, e.Decisions)
			}
		case "rebalance", "failover":
			if e.AttestedAccesses != 1 {
				return nil, fmt.Errorf("bench baseline: %s: placement change cost %d attested accesses, want exactly 1",
					where, e.AttestedAccesses)
			}
		case "reads":
			if e.Lease && e.LeaseReads == 0 {
				return nil, fmt.Errorf("bench baseline: %s: lease on but zero leased reads", where)
			}
			if !e.Lease && e.LeaseReads != 0 {
				return nil, fmt.Errorf("bench baseline: %s: lease off but %d leased reads", where, e.LeaseReads)
			}
			if e.AttestedAccesses == 0 {
				return nil, fmt.Errorf("bench baseline: %s: zero attested accesses over a full run", where)
			}
		case "window":
			if e.AttestWindow < 1 {
				return nil, fmt.Errorf("bench baseline: %s: attest window %d", where, e.AttestWindow)
			}
			if e.AttestedAccesses == 0 || e.Completed == 0 {
				return nil, fmt.Errorf("bench baseline: %s: empty window run", where)
			}
		}
	}
	if err := validateWindowPairs(b.Entries); err != nil {
		return nil, err
	}
	return &b, nil
}

// validateWindowPairs enforces the windowed-attestation amortization
// invariant across entries: for each (protocol, shards) with both a
// per-batch arm (window 1) and an amortized arm (window W>1), the amortized
// arm must spend at least W/2-fold fewer attested accesses per committed
// request. The ratio is a property of the protocol's counter discipline
// under the pinned seed, not of machine speed, so it belongs with the other
// machine-independent invariants.
func validateWindowPairs(entries []BenchEntry) error {
	type key struct {
		proto  string
		shards int
	}
	perBatch := make(map[key]float64)
	for _, e := range entries {
		if e.Experiment == "window" && e.AttestWindow == 1 {
			perBatch[key{e.Protocol, e.Shards}] = float64(e.AttestedAccesses) / float64(e.Completed)
		}
	}
	for _, e := range entries {
		if e.Experiment != "window" || e.AttestWindow <= 1 {
			continue
		}
		base, ok := perBatch[key{e.Protocol, e.Shards}]
		if !ok {
			continue // no baseline arm recorded for this configuration
		}
		perOp := float64(e.AttestedAccesses) / float64(e.Completed)
		want := float64(e.AttestWindow) / 2
		if perOp <= 0 || base/perOp < want {
			return fmt.Errorf("bench baseline: window %s/S=%d/W=%d amortizes %.1fx, want >= %.1fx",
				e.Protocol, e.Shards, e.AttestWindow, base/perOp, want)
		}
	}
	return nil
}

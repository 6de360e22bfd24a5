package flexitrust

import (
	"net/http"
	"time"

	"flexitrust/internal/obs"
)

// Observability re-exports: the public names for the internal/obs layer a
// sharded deployment exposes through ShardedCluster.Observe. See the
// "Observability" section of the package documentation in flexitrust.go for
// the span taxonomy, the audit invariants and the metric name registry.

// Observer is a deployment's observability hub: request tracer, metrics
// registry, attested-access audit stream and control-plane event journal.
// Every accessor is nil-safe — a disabled deployment hands out a nil
// Observer and all instrumentation no-ops.
type Observer = obs.Observer

// TraceRecord is one sampled request trace: its spans, parent links and
// annotations (Observer.Tracer().Snapshot()).
type TraceRecord = obs.TraceRecord

// SpanRecord is one span of a trace: layer, name, timing and annotations.
type SpanRecord = obs.SpanRecord

// MetricsSnapshot is a point-in-time copy of every counter, gauge and
// histogram in the registry (Observer.Metrics().Snapshot()).
type MetricsSnapshot = obs.MetricsSnapshot

// HistogramStats summarizes one histogram: count, mean, min/max, p50/p99.
type HistogramStats = obs.HistogramStats

// AuditRecord is one attested trusted-counter access in the audit stream:
// host, namespace, counter, attested value and the digest it bound.
type AuditRecord = obs.AccessRecord

// AuditDecision marks one transaction/placement decision's attested commit
// point in the audit stream.
type AuditDecision = obs.DecisionRecord

// AuditAlarm is one audit invariant violation (counter regression, replayed
// or equivocated decision, wrong access count per decision). An empty
// Alarms() slice is the healthy state.
type AuditAlarm = obs.Alarm

// JournalEvent is one control-plane event (view change, health transition,
// placement epoch flip, evacuation, alert), causally ordered against the
// audit stream by its shared sequence number.
type JournalEvent = obs.Event

// AlertRecord is one fired SLO rule: rule name, group, measured value and
// the causal sequence number shared with its journal entry. The rule
// names are the obs.Rule* constants ("audit_alarm", "stall",
// "slo_error_burn", "latency_p99", "health_flapping",
// "verify_pool_saturation").
type AlertRecord = obs.Alert

// FlightRecord is one post-mortem bundle (schema flexitrust-flight/v1):
// the full observability export at write time plus the recent metrics
// history, persisted when an alert fires or the cluster stops dirty.
type FlightRecord = obs.FlightRecord

// ObsExport is the versioned flexitrust-obs/v1 snapshot document
// (ShardedCluster.ObserveSnapshot): metrics, traces, audit, journal,
// alerts and per-shard consensus stats, each stream with retained/dropped
// accounting so a scrape never silently under-reports.
type ObsExport = obs.Export

// ShardObsExport is one shard's entry in ObsExport.Shards.
type ShardObsExport = obs.ShardExport

// ObserveOptions configures a sharded deployment's observability
// (ShardOptions.Observe). The zero value disables it — no observer is
// created and every instrumentation point no-ops.
type ObserveOptions struct {
	// Enabled switches observability on.
	Enabled bool
	// SampleRate is the fraction of requests traced, in (0, 1]; 0 uses the
	// default (1/64). Sampling is deterministic (every k-th request), so
	// runs are reproducible.
	SampleRate float64
	// TraceBuffer is the number of most-recent sampled traces retained
	// (default 256).
	TraceBuffer int
	// Rules attaches the SLO alert-rules engine (requires Enabled).
	Rules RulesOptions
}

// RulesOptions configures the alert-rules engine over an observed
// cluster. When Enabled, the cluster runs a watch loop that samples shard
// health and evaluates the rules every EvalEvery, fires OnAlert for each
// alert, and — when FlightDir is set — persists a post-mortem
// flexitrust-flight/v1 bundle on every alert and on a dirty Stop.
type RulesOptions struct {
	// Enabled switches the engine (and the cluster's watch loop) on.
	Enabled bool
	// EvalEvery is the watch-loop period (default 50ms).
	EvalEvery time.Duration
	// ErrorRatePerSec budgets degraded/unroutable errors per second; 0
	// means 1/s, negative disables the rule.
	ErrorRatePerSec float64
	// LatencyP99SLO alerts when a shard's windowed p99 op latency exceeds
	// it; 0 disables the rule (the default — an idle cluster then cannot
	// false-alarm).
	LatencyP99SLO time.Duration
	// FlightDir, when set, arms the flight recorder in this directory.
	FlightDir string
	// OnAlert, when set, is called synchronously for every fired alert.
	OnAlert func(AlertRecord)
}

// Observe returns the cluster's observer, or nil when ShardOptions.Observe
// was not enabled. The returned Observer's accessors (Tracer, Metrics,
// Audit, Journal) are nil-safe either way.
func (c *ShardedCluster) Observe() *Observer { return c.inner.Observe() }

// ObserveSnapshot renders the whole cluster's observability state as one
// flexitrust-obs/v1 document: every stream with retained/dropped counts,
// fired alerts, and per-shard consensus stats.
func (c *ShardedCluster) ObserveSnapshot() ObsExport { return c.inner.ObserveSnapshot() }

// ObserveHandler serves the cluster's admin endpoints — /metrics
// (Prometheus text; ?format=json for ObserveSnapshot), /healthz (503 when
// an audit alarm is outstanding or a shard is stalled), /traces,
// /journal, /audit, /alerts — for mounting on any HTTP listener.
func (c *ShardedCluster) ObserveHandler() http.Handler { return c.inner.Exporter().Handler() }

// Alerts returns every alert the rules engine has retained (nil when
// ObserveOptions.Rules was not enabled). Oldest first.
func (c *ShardedCluster) Alerts() []AlertRecord { return c.inner.Rules().Alerts() }

// EvaluateRules forces one rules evaluation outside the watch loop's
// cadence and returns the alerts it fired (tests, deterministic drivers).
func (c *ShardedCluster) EvaluateRules() []AlertRecord { return c.inner.Rules().Evaluate() }

// FlightRecords returns the paths of post-mortem bundles written so far
// (nil when no flight recorder is armed).
func (c *ShardedCluster) FlightRecords() []string { return c.inner.Flight().Written() }

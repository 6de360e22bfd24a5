package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"flexitrust/internal/types"
)

// goldenScenario builds a fully deterministic observer + rules engine:
// manual clock, sample-everything tracing, one trace, a few metrics, an
// audited decision, a journal event, and one audit alarm promoted to an
// alert. Every golden byte derives from it.
func goldenScenario(t *testing.T) (*Exporter, *Rules, *time.Duration) {
	t.Helper()
	now := new(time.Duration)
	o := New(Config{
		SampleRate: 1, TraceBuffer: 4, AuditBuffer: 8, JournalBuffer: 8,
		Clock: func() time.Duration { return *now },
	})
	rules := NewRules(o, RulesConfig{})
	ex := &Exporter{O: o, Rules: rules, Label: "golden"}

	*now = 1 * time.Millisecond
	span := o.Tracer().StartTrace("session", "put")
	child := span.Child("replica", "consensus")
	child.Annotate("batch=%d", 4)
	*now = 2 * time.Millisecond
	child.End()
	*now = 3 * time.Millisecond
	span.End()

	m := o.Metrics()
	m.Counter(MRouteRetries).Add(3)
	m.Counter(GroupLabel(MHealthTransitions, 0)).Inc()
	m.Gauge(MVerifyPoolDepth).Set(2)
	h := m.Histogram(GroupLabel(MShardOpLatency, 0))
	h.Observe(1000)
	h.Observe(2000)
	h.Observe(4000)

	digest := func(b byte) (d types.Digest) { d[0] = b; return }
	a := o.Audit()
	a.RegisterDecisionNamespace(7)
	a.Access(AccessRecord{Kind: AccessAppendF, Host: 1, Namespace: 7, Counter: 1,
		Epoch: 1, Value: 1, Digest: digest(0xAA), Layer: "coordinator"})
	a.Decision(DecisionRecord{Kind: DecisionTxn, TxID: 9, Commit: true,
		Digest: digest(0xAA), Value: 1})
	o.Journal().Record(EventEpochFlip, -1, "placement epoch 2 installed")
	// A replayed counter value: the Section 6 rollback, tripping the
	// online checker — which the rules engine must promote to an alert.
	a.Access(AccessRecord{Kind: AccessAppendF, Host: 1, Namespace: 7, Counter: 1,
		Epoch: 1, Value: 1, Digest: digest(0xBB), Layer: "coordinator"})

	*now = 10 * time.Millisecond
	fired := rules.Evaluate()
	if len(fired) != 1 || fired[0].Rule != RuleAuditAlarm {
		t.Fatalf("want exactly one %s alert, got %+v", RuleAuditAlarm, fired)
	}
	ex.Shards = func() []ShardExport {
		return []ShardExport{{
			Shard: 0, Submitted: 10, Committed: 10, Watermark: 3,
			MeanLatNs: 1500, P99LatNs: 4000, View: 0, ViewChanges: 0,
			Health: "healthy",
		}}
	}
	return ex, rules, now
}

// checkGolden compares got against the golden file, regenerating it when
// UPDATE_GOLDEN=1.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestExportGoldenJSON(t *testing.T) {
	ex, _, _ := goldenScenario(t)
	data, err := ex.JSON()
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	var doc Export
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export does not round-trip: %v", err)
	}
	if doc.Schema != ExportSchema {
		t.Fatalf("schema %q, want %q", doc.Schema, ExportSchema)
	}
	if doc.Traces.Retained != 1 || !doc.Traces.Records[0].Complete() {
		t.Fatalf("want one complete trace, got %+v", doc.Traces)
	}
	if doc.Audit.Dropped != 0 || doc.Journal.Dropped != 0 {
		t.Fatalf("unexpected drops: %+v %+v", doc.Audit, doc.Journal)
	}
	if len(doc.Shards) != 1 || doc.Shards[0].Committed != 10 || doc.Shards[0].P99LatNs != 4000 {
		t.Fatalf("shard stats missing: %+v", doc.Shards)
	}
	checkGolden(t, "export_golden.json", data)
}

func TestExportGoldenPrometheusText(t *testing.T) {
	ex, _, _ := goldenScenario(t)
	text := ex.PrometheusText()
	checkGolden(t, "metrics_golden.txt", []byte(text))
}

// promLineRE matches one Prometheus text exposition sample.
var promLineRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?([eE][+-][0-9]+)?$`)

func TestPrometheusTextParses(t *testing.T) {
	ex, _, _ := goldenScenario(t)
	lines := strings.Split(strings.TrimRight(ex.PrometheusText(), "\n"), "\n")
	if len(lines) < 10 {
		t.Fatalf("suspiciously short exposition: %d lines", len(lines))
	}
	sawGroupLabel := false
	for _, ln := range lines {
		if strings.HasPrefix(ln, "# TYPE ") {
			continue
		}
		if !promLineRE.MatchString(ln) {
			t.Errorf("malformed exposition line: %q", ln)
		}
		if strings.Contains(ln, `group="0"`) {
			sawGroupLabel = true
		}
		if strings.Contains(ln, "{group=") && !strings.Contains(ln, `group="`) {
			t.Errorf("unparsed embedded group label: %q", ln)
		}
	}
	if !sawGroupLabel {
		t.Error("per-group metric did not render a group label")
	}
}

func TestExporterHandler(t *testing.T) {
	ex, rules, _ := goldenScenario(t)
	srv := httptest.NewServer(ex.Handler())
	defer srv.Close()

	get := func(path string) (int, []byte) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(string(body), "flexitrust_route_retries 3") {
		t.Fatalf("/metrics: code %d body %q", code, body)
	}
	if code, body := get("/metrics?format=json"); code != http.StatusOK || !strings.Contains(string(body), ExportSchema) {
		t.Fatalf("/metrics?format=json: code %d", code)
	} else {
		var doc Export
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("/metrics?format=json does not parse: %v", err)
		}
	}
	// The golden scenario carries an audit alarm, so healthz is degraded.
	code, body := get("/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz with an alarm: code %d body %s", code, body)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil || h.Status != "degraded" || h.Alarms != 1 {
		t.Fatalf("/healthz body %s (err %v)", body, err)
	}
	if code, body := get("/traces"); code != http.StatusOK || !strings.Contains(string(body), `"trace_id"`) {
		t.Fatalf("/traces: code %d body %s", code, body)
	}
	if code, body := get("/journal"); code != http.StatusOK || !strings.Contains(string(body), "placement epoch 2") {
		t.Fatalf("/journal: code %d body %s", code, body)
	}
	if code, body := get("/audit"); code != http.StatusOK || !strings.Contains(string(body), "rollback or double-mint") {
		t.Fatalf("/audit: code %d body %s", code, body)
	}
	if code, body := get("/alerts"); code != http.StatusOK || !strings.Contains(string(body), RuleAuditAlarm) {
		t.Fatalf("/alerts: code %d body %s", code, body)
	}
	_ = rules
}

func TestExporterNilSafety(t *testing.T) {
	var ex *Exporter
	if got := ex.Snapshot(); got.Schema != ExportSchema {
		t.Fatalf("nil exporter snapshot: %+v", got)
	}
	empty := &Exporter{}
	if _, err := empty.JSON(); err != nil {
		t.Fatal(err)
	}
	if text := empty.PrometheusText(); text == "" {
		t.Fatal("even an empty exporter emits the meta-series")
	}
	srv := httptest.NewServer(empty.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty exporter healthz: %d", resp.StatusCode)
	}
}

// TestExporterRulesRace hammers every write surface while scraping and
// evaluating concurrently; run under -race.
func TestExporterRulesRace(t *testing.T) {
	o := New(Config{SampleRate: 1, TraceBuffer: 32, AuditBuffer: 64, JournalBuffer: 64})
	rules := NewRules(o, RulesConfig{})
	ex := &Exporter{O: o, Rules: rules, Shards: func() []ShardExport {
		return []ShardExport{{Shard: 0}}
	}}

	const writers, scrapers, iters = 4, 3, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sp := o.Tracer().StartTrace("race", "op")
				sp.Child("inner", "step").End()
				sp.End()
				o.Metrics().Counter(MRouteRetries).Inc()
				o.Metrics().Histogram(GroupLabel(MShardOpLatency, w)).Observe(int64(i))
				o.Metrics().Gauge(MVerifyPoolDepth).Set(int64(i % 8))
				o.Audit().Access(AccessRecord{Host: types.ReplicaID(w),
					Namespace: uint16(w + 1), Counter: 1, Epoch: 1, Value: uint64(i + 1)})
				o.Journal().Record(EventViewChange, w, "view %d", i)
			}
		}()
	}
	for s := 0; s < scrapers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_ = ex.Snapshot()
				_ = ex.PrometheusText()
				_ = rules.Evaluate()
				_ = ex.Health()
			}
		}()
	}
	wg.Wait()
	if got := len(o.Audit().Alarms()); got != 0 {
		t.Fatalf("distinct per-writer counters must not alarm, got %d", got)
	}
}

// Command wallbench measures the real replica runtime (internal/runtime) on
// the wall clock, in one process, on four named workloads:
//
//	go run . --workload hub-flexibft-write --seed 1 --seconds 10 --trace 0
//
// Every input is generated from --seed before the clock starts. A run sets
// the cluster up several times (setup_s is the median of those), warms up
// for one second, measures closed-loop clients for --seconds, drains, and
// then checks the outputs: replicas that applied the same number of
// operations must agree on the state digest, a sample of written keys read
// back through consensus must hold the last committed write, and (on the
// leased-read workload) no read may contradict the session's own
// acknowledged write. The last line of standard output is one JSON object;
// the exit code is 1 when a correctness check failed.
//
// With --trace 1 the cluster is built from the decorators in trace.go, which
// time the calls into each layer, and the per-layer metrics are added.
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	goruntime "runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"

	"flexitrust/internal/types"
	ycsb "flexitrust/internal/workload"
)

const (
	// records is the YCSB key space of the paper's evaluation.
	records = 600_000
	// setups is how many times a run builds the cluster; setup_s is the
	// median, the last cluster is the one measured.
	setups = 9
	// warmup runs the clients before the measured window so connections,
	// lazily built maps and the first checkpoints are out of the way.
	warmup = time.Second
	// drainTimeout bounds how long an operation started in the window may
	// take to complete before it counts as unanswered.
	drainTimeout = 10 * time.Second
	// readbackKeys is the number of written keys read back through
	// consensus after the drain.
	readbackKeys = 64
	// opsPerRun is how many operations are generated up front; clients
	// cycle through their share when a run outpaces it.
	opsPerRun = 1 << 19
)

// op is one generated client operation.
type op struct {
	key  uint64
	read bool
}

// genOps draws every client's operations from the seed: YCSB Zipfian keys
// (theta 0.99) over the record space, and a read/update coin per op. One
// generator serves all clients, so the zeta constant over 600k records is
// computed once.
func genOps(seed int64, clients int, readFrac float64) [][]op {
	g := ycsb.NewGenerator(ycsb.Config{Records: records, Zipfian: true, ZipfTheta: 0.99, Seed: seed})
	coin := rand.New(rand.NewSource(seed ^ 0x5eedc0ffee))
	per := opsPerRun / clients
	out := make([][]op, clients)
	for c := range out {
		out[c] = make([]op, per)
		for i := range out[c] {
			out[c][i] = op{key: g.NextKey(), read: coin.Float64() < readFrac}
		}
	}
	return out
}

// value encodes a write's identity (client index and the client's write
// counter), so a read can tell whose write it observed.
func value(client int, n uint64) []byte {
	v := make([]byte, 12)
	v[0], v[1] = 'w', 'b'
	binary.BigEndian.PutUint16(v[2:4], uint16(client))
	binary.BigEndian.PutUint64(v[4:12], n)
	return v
}

// parseValue inverts value; ok is false for any other bytes (such as a
// record's initial value).
func parseValue(v []byte) (client int, n uint64, ok bool) {
	if len(v) != 12 || v[0] != 'w' || v[1] != 'b' {
		return 0, 0, false
	}
	return int(binary.BigEndian.Uint16(v[2:4])), binary.BigEndian.Uint64(v[4:12]), true
}

// lastWrite is the latest acknowledged write(s) to one key. Writes that
// share the highest commit sequence number sit in the same batch, whose
// internal order the client cannot see, so all of them are candidates.
// Deployments that report no sequence number (seq 0) keep only the newest.
type lastWrite struct {
	seq  types.SeqNum
	vals [][]byte
}

// clientLog is what one closed-loop client records. Only its own goroutine
// writes it until the run has drained.
type clientLog struct {
	lat, getLat, putLat []int64 // ns, operations completed in the window
	attempted, failed   int     // operations started in the window
	stale               int     // leased reads that contradicted an own write
	firstErr            error
	last                map[uint64]lastWrite
	unsure              map[uint64]bool   // keys with a failed write
	own                 map[uint64]uint64 // key → counter of own last acked write
}

func (l *clientLog) noteWrite(key uint64, seq types.SeqNum, v []byte) {
	cur := l.last[key]
	switch {
	case seq == 0 || seq > cur.seq:
		l.last[key] = lastWrite{seq: seq, vals: [][]byte{v}}
	case seq == cur.seq:
		cur.vals = append(cur.vals, v)
		l.last[key] = cur
	}
}

// clientLoop runs one closed-loop client until the window ends.
func clientLoop(ctx context.Context, d deployment, c int, ops []op, win *window, tr *tracer, l *clientLog) {
	var writes uint64
	for i := 0; ; i++ {
		start := time.Now()
		if !start.Before(win.end) {
			return
		}
		o := ops[i%len(ops)]
		tr.submitting(c, start)
		var err error
		if o.read {
			var v []byte
			v, err = d.get(ctx, c, o.key)
			if err == nil {
				if n, wrote := l.own[o.key]; wrote {
					wc, wn, ours := parseValue(v)
					if !ours || (wc == c && wn < n) {
						l.stale++
						err = fmt.Errorf("client %d read key %d as %q after its own acknowledged write %d", c, o.key, v, n)
					}
				}
			}
		} else {
			writes++
			v := value(c, writes)
			var seq types.SeqNum
			seq, err = d.write(ctx, c, o.key, v)
			if err == nil {
				l.noteWrite(o.key, seq, v)
				l.own[o.key] = writes
			} else {
				l.unsure[o.key] = true
			}
		}
		end := time.Now()
		inWindow := !start.Before(win.start)
		if inWindow {
			l.attempted++
			if err != nil {
				l.failed++
				if l.firstErr == nil {
					l.firstErr = err
				}
			}
		}
		if err == nil && !end.Before(win.start) && !end.After(win.end) {
			ns := int64(end.Sub(start))
			l.lat = append(l.lat, ns)
			if o.read {
				l.getLat = append(l.getLat, ns)
			} else {
				l.putLat = append(l.putLat, ns)
			}
		}
	}
}

// window is the measured interval.
type window struct{ start, end time.Time }

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// usage samples the process counters a window is measured by.
type usage struct {
	cpu     time.Duration
	mallocs uint64
	gcCPU   float64
	allCPU  float64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	metrics.Read(cpuMetrics)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcCPU:   cpuMetrics[0].Value.Float64(),
		allCPU:  cpuMetrics[1].Value.Float64(),
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// quantile is the nearest-rank p-th percentile of sorted ns samples, in µs.
func quantile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e3
}

func sortedCopy(parts ...[]int64) []int64 {
	var out []int64
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// run executes one workload end to end and returns its result; problems
// with the outputs are listed in failures.
func run(w workload, seed int64, seconds int, tr *tracer, profile string) (res *result, failures []string, err error) {
	ops := genOps(seed, w.clients, w.readFrac)
	var prof *os.File
	if profile != "" {
		if prof, err = os.Create(profile); err != nil {
			return nil, nil, fmt.Errorf("creating CPU profile: %w", err)
		}
		defer prof.Close() // error paths only; the success path checks Close
	}

	var d deployment
	var setupS []float64
	for i := 0; i < setups; i++ {
		if d != nil {
			d.stop()
			goruntime.GC()
		}
		tr.reset()
		t0 := time.Now()
		if d, err = w.build(w.clients, seed, tr); err != nil {
			return nil, nil, fmt.Errorf("building %s: %w", w.name, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, err = d.readCommitted(ctx, 0)
		cancel()
		if err != nil {
			d.stop()
			return nil, nil, fmt.Errorf("first committed op on %s: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer d.stop()

	now := time.Now()
	win := &window{start: now.Add(warmup)}
	win.end = win.start.Add(time.Duration(seconds) * time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), win.end.Add(drainTimeout))
	defer cancel()
	logs := make([]*clientLog, w.clients)
	var wg sync.WaitGroup
	for c := range logs {
		logs[c] = &clientLog{last: map[uint64]lastWrite{}, unsure: map[uint64]bool{}, own: map[uint64]uint64{}}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			clientLoop(ctx, d, c, ops[c], win, tr, logs[c])
		}(c)
	}
	time.Sleep(time.Until(win.start))
	u0 := sampleUsage()
	tr.start()
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	time.Sleep(time.Until(win.end))
	if prof != nil {
		pprof.StopCPUProfile()
	}
	tr.stop()
	u1 := sampleUsage()
	wg.Wait()
	if prof != nil {
		if err := prof.Close(); err != nil {
			return nil, nil, fmt.Errorf("writing CPU profile: %w", err)
		}
	}

	res = &result{Metrics: map[string]metric{}}
	var lat, getLat, putLat [][]int64
	stale := 0
	for c, l := range logs {
		res.Attempted += l.attempted
		res.Failed += l.failed
		stale += l.stale
		lat, getLat, putLat = append(lat, l.lat), append(getLat, l.getLat), append(putLat, l.putLat)
		if l.firstErr != nil {
			fmt.Fprintf(os.Stderr, "client %d: first failure: %v\n", c, l.firstErr)
		}
	}
	all := sortedCopy(lat...)
	done := float64(len(all))
	if done == 0 {
		return nil, nil, fmt.Errorf("%s committed no operation in the window", w.name)
	}
	if stale > 0 {
		failures = append(failures, fmt.Sprintf("%d leased reads contradicted the session's own acknowledged write", stale))
	}
	secs := win.end.Sub(win.start).Seconds()
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("throughput_ops_s", "ops/s", done/secs)
	set("latency_p50_ms", "ms", quantile(all, 50)/1e3)
	set("latency_p99_ms", "ms", quantile(all, 99)/1e3)
	set("latency_samples", "count", done)
	set("cpu_us_per_op", "us", float64(u1.cpu-u0.cpu)/1e3/done)
	set("setup_s", "s", median(setupS))
	set("failed_frac", "ratio", float64(res.Failed)/float64(max(res.Attempted, 1)))
	set("go.allocs_per_op", "count", float64(u1.mallocs-u0.mallocs)/done)
	set("go.gc_cpu_frac", "ratio", (u1.gcCPU-u0.gcCPU)/math.Max(u1.allCPU-u0.allCPU, 1e-9))
	var gets, puts []int64
	if _, sharded := d.(*shardDeployment); sharded {
		gets, puts = sortedCopy(getLat...), sortedCopy(putLat...)
	}
	set("shard.get_us.p50", "us", quantile(gets, 50))
	set("shard.get_us.p99", "us", quantile(gets, 99))
	set("shard.put_us.p50", "us", quantile(puts, 50))
	set("shard.put_us.p99", "us", quantile(puts, 99))

	failures = append(failures, readBack(d, seed, logs)...)
	stalled, lag, digestFailures := checkReplicas(d)
	failures = append(failures, digestFailures...)
	set("engine.stalled_replicas", "count", float64(stalled))
	set("engine.replica_lag_ops", "count", float64(lag))
	for name, m := range tr.metrics(done, secs, float64(len(gets))) {
		res.Metrics[name] = m
	}
	set("peak_rss_mb", "MB", peakRSSMB())
	res.Correct = len(failures) == 0
	return res, failures, nil
}

// readBack reads a seeded sample of written keys through consensus and
// checks each holds its last committed write.
func readBack(d deployment, seed int64, logs []*clientLog) []string {
	want := map[uint64]lastWrite{}
	unsure := map[uint64]bool{}
	for _, l := range logs {
		for k := range l.unsure {
			unsure[k] = true
		}
		for k, w := range l.last {
			cur, seen := want[k]
			switch {
			case !seen || w.seq > cur.seq:
				want[k] = lastWrite{seq: w.seq, vals: append([][]byte(nil), w.vals...)}
			case w.seq == cur.seq:
				cur.vals = append(cur.vals, w.vals...)
				want[k] = cur
			}
		}
	}
	var keys []uint64
	for k := range want {
		if !unsure[k] {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	rand.New(rand.NewSource(seed)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if len(keys) > readbackKeys {
		keys = keys[:readbackKeys]
	}
	var failures []string
	for _, k := range keys {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		got, err := d.readCommitted(ctx, k)
		cancel()
		if err != nil {
			failures = append(failures, fmt.Sprintf("read-back of key %d: %v", k, err))
			continue
		}
		ok := false
		for _, v := range want[k].vals {
			if string(v) == string(got) {
				ok = true
			}
		}
		if !ok {
			failures = append(failures, fmt.Sprintf("key %d reads %q, not its last committed write", k, got))
		}
	}
	if len(keys) == 0 {
		failures = append(failures, "no written key to read back")
	}
	return failures
}

// checkReplicas waits until every replica's applied count stops moving,
// then requires replicas with equal applied counts to agree on the state
// digest. Replicas behind their group's leader are reported as stalled, not
// hidden.
func checkReplicas(d deployment) (stalled, lag int, failures []string) {
	type snap struct {
		digest  types.Digest
		applied uint64
	}
	read := func() [][]snap {
		var out [][]snap
		for _, g := range d.groups() {
			var row []snap
			for _, n := range g {
				dg, a := n.DigestSnapshot()
				row = append(row, snap{dg, a})
			}
			out = append(out, row)
		}
		return out
	}
	prev := read()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(250 * time.Millisecond)
		cur := read()
		same := true
		for g := range cur {
			for r := range cur[g] {
				same = same && cur[g][r].applied == prev[g][r].applied
			}
		}
		prev = cur
		if same {
			break
		}
	}
	for g, row := range prev {
		var top, bottom uint64 = 0, math.MaxUint64
		for _, s := range row {
			top, bottom = max(top, s.applied), min(bottom, s.applied)
		}
		lag = max(lag, int(top-bottom))
		for r, s := range row {
			if s.applied < top {
				stalled++
				fmt.Printf("group %d replica %d stalled: applied %d of %d ops\n", g, r, s.applied, top)
			}
			for r2 := r + 1; r2 < len(row); r2++ {
				if row[r2].applied == s.applied && row[r2].digest != s.digest {
					failures = append(failures, fmt.Sprintf("group %d replicas %d and %d applied %d ops but disagree on the state digest", g, r, r2, s.applied))
				}
			}
		}
	}
	return stalled, lag, failures
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 builds the cluster from the tracing decorators and adds per-layer metrics")
	profile := flag.String("cpuprofile", "", "write a CPU profile of the measured window to this file")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "wallbench: unknown workload %q or bad --seconds; workloads: %v\n", *name, workloadNames())
		os.Exit(2)
	}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer(w.clients)
	}
	res, failures, err := run(w, *seed, *seconds, tr, *profile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wallbench: %v\n", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d: %d attempted, %d failed, %d latency samples\n",
		w.name, *seed, res.Attempted, res.Failed, int(res.Metrics["latency_samples"].Value))
	for _, n := range names {
		fmt.Printf("  %-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, f := range failures {
		fmt.Printf("CORRECTNESS FAILURE: %s\n", f)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wallbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

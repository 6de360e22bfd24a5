package main

import (
	"sync"
	"sync/atomic"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/obs"
	"flexitrust/internal/transport"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
	"flexitrust/internal/wire"
)

// The traced run builds the cluster from decorators around the interfaces
// the runtime already injects — transport.Transport and its handler, the
// NewProtocol constructor, the engine.Env handed to Init, and the
// trusted.Component from Env.Trusted() — and times the calls into each
// layer. Nothing inside the program is instrumented. Counters only advance
// while the measured window is open.

// msgKind groups messages for the per-type transport and wire metrics. The
// workloads' protocols send the named kinds; everything else (commits,
// window certificates, resends) counts in the totals only.
type msgKind int

const (
	kindRequest msgKind = iota
	kindPreprepare
	kindPrepare
	kindResponse
	kindCheckpoint
	kindOther
	numKinds
)

var kindNames = [kindOther]string{"request", "preprepare", "prepare", "response", "checkpoint"}

func kindOf(m types.Message) msgKind {
	switch m.(type) {
	case *types.ClientRequest:
		return kindRequest
	case *types.Preprepare:
		return kindPreprepare
	case *types.Prepare:
		return kindPrepare
	case *types.Response:
		return kindResponse
	case *types.Checkpoint:
		return kindCheckpoint
	default:
		return kindOther
	}
}

// captureMax is how many envelopes of each kind are kept for the wire
// replay.
const captureMax = 64

// samples keeps durations for exact quantiles (obs.Histogram's buckets are
// 12.5% wide). Past its capacity it drops every other sample and keeps one
// in twice as many from then on, so memory stays bounded and the kept
// samples stay spread over the window.
type samples struct {
	mu     sync.Mutex
	v      []int64
	stride int
	skip   int
}

const samplesCap = 1 << 20

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stride == 0 {
		s.stride = 1
	}
	if s.skip++; s.skip < s.stride {
		return
	}
	s.skip = 0
	if len(s.v) >= samplesCap {
		for i := 0; i < len(s.v)/2; i++ {
			s.v[i] = s.v[2*i]
		}
		s.v = s.v[:len(s.v)/2]
		s.stride *= 2
	}
	s.v = append(s.v, int64(d))
}

// quantileUS is the p-th percentile in µs.
func (s *samples) quantileUS(p float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantile(sortedCopy(s.v), p)
}

// tracer collects the per-layer measurements of one traced run. A nil
// tracer is the untraced run: every method is a no-op and every decorator
// constructor returns what it was given.
type tracer struct {
	on  atomic.Bool
	obs *obs.Observer

	mu    sync.Mutex
	nodes map[nodeKey]*nodeTrace

	sends     [numKinds]atomic.Int64
	sendNs    atomic.Int64
	sendCalls atomic.Int64
	capMu     sync.Mutex
	captured  [numKinds][]*wire.Envelope

	// submitAt holds, per client, when its in-flight Submit started; the
	// first replica handler that sees the request takes it.
	submitAt []atomic.Int64

	presend, queueWait, batchWait, verifyWait samples

	tcCalls, tcNs, verifies, execNs       atomic.Int64
	batches, batchOps, leaseGrants        atomic.Int64
	leaseFallbacks0, leaseFallbacksWindow atomic.Uint64
}

type nodeKey struct {
	group int
	id    types.ReplicaID
}

// nodeTrace is one replica's share of the trace.
type nodeTrace struct {
	t *tracer
	// primary marks the view-0 primary; the workloads run no view change.
	primary bool
	busyNs  atomic.Int64

	// Event-goroutine state: handler nesting, when the outermost handler
	// began, and when each request was admitted at the primary.
	depth     int
	enteredAt time.Time
	admitted  map[types.RequestKey]time.Time

	arrMu    sync.Mutex
	arrivals map[types.Message]time.Time
}

func newTracer(clients int) *tracer {
	return &tracer{
		obs:      obs.New(obs.Config{}),
		submitAt: make([]atomic.Int64, clients),
	}
}

// reset forgets the replicas of a previous set-up.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.nodes = map[nodeKey]*nodeTrace{}
	t.mu.Unlock()
}

func (t *tracer) start() {
	if t == nil {
		return
	}
	t.leaseFallbacks0.Store(t.obs.Metrics().Counter(obs.MLeaseFallbacks).Value())
	t.on.Store(true)
}

func (t *tracer) stop() {
	if t == nil {
		return
	}
	t.on.Store(false)
	t.leaseFallbacksWindow.Store(t.obs.Metrics().Counter(obs.MLeaseFallbacks).Value() - t.leaseFallbacks0.Load())
}

func (t *tracer) observer() *obs.Observer {
	if t == nil {
		return nil
	}
	return t.obs
}

func (t *tracer) node(group int, id types.ReplicaID) *nodeTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := nodeKey{group, id}
	n := t.nodes[k]
	if n == nil {
		n = &nodeTrace{t: t, primary: id == 0, admitted: map[types.RequestKey]time.Time{},
			arrivals: map[types.Message]time.Time{}}
		t.nodes[k] = n
	}
	return n
}

// submitting notes that client c starts an operation now.
func (t *tracer) submitting(c int, now time.Time) {
	if t == nil {
		return
	}
	t.submitAt[c].Store(now.UnixNano())
}

// --- transport.Transport ---

// tracedTransport counts and times sends, keeps a sample of envelopes for
// the wire replay, and stamps arrivals for the queue-wait and pre-send
// measurements.
type tracedTransport struct {
	transport.Transport
	t *tracer
	n *nodeTrace // nil on a client's endpoint
}

func (t *tracer) transport(group int, id types.ReplicaID, tp transport.Transport) transport.Transport {
	if t == nil {
		return tp
	}
	return &tracedTransport{Transport: tp, t: t, n: t.node(group, id)}
}

func (t *tracer) clientTransport(tp transport.Transport) transport.Transport {
	if t == nil {
		return tp
	}
	return &tracedTransport{Transport: tp, t: t}
}

func (tt *tracedTransport) Send(to transport.Addr, env *wire.Envelope) {
	start := time.Now()
	tt.Transport.Send(to, env)
	t := tt.t
	if !t.on.Load() {
		return
	}
	k := kindOf(env.Msg)
	t.sends[k].Add(1)
	t.sendNs.Add(int64(time.Since(start)))
	t.sendCalls.Add(1)
	t.capMu.Lock()
	if len(t.captured[k]) < captureMax {
		t.captured[k] = append(t.captured[k], env)
	}
	t.capMu.Unlock()
}

func (tt *tracedTransport) SetHandler(h transport.Handler) {
	if tt.n == nil {
		tt.Transport.SetHandler(h)
		return
	}
	tt.Transport.SetHandler(func(env *wire.Envelope) {
		now := time.Now()
		switch m := env.Msg.(type) {
		case *types.LeaseRead, *types.RequestBatch, *types.Hello:
			// Served on the delivery goroutine, or unpacked into requests:
			// no protocol callback receives this message itself.
		case *types.ClientRequest:
			if c := int(m.Client) - 1; c >= 0 && c < len(tt.t.submitAt) {
				if at := tt.t.submitAt[c].Swap(0); at != 0 && tt.t.on.Load() {
					tt.t.presend.add(now.Sub(time.Unix(0, at)))
				}
			}
			tt.n.arrive(m, now)
		default:
			tt.n.arrive(m, now)
		}
		h(env)
	})
}

func (n *nodeTrace) arrive(m types.Message, now time.Time) {
	n.arrMu.Lock()
	n.arrivals[m] = now
	n.arrMu.Unlock()
}

// dequeued records how long m waited between the transport handler and the
// protocol callback.
func (n *nodeTrace) dequeued(m types.Message) {
	n.arrMu.Lock()
	at, ok := n.arrivals[m]
	delete(n.arrivals, m)
	n.arrMu.Unlock()
	if ok && n.t.on.Load() {
		n.t.queueWait.add(time.Since(at))
	}
}

// enter and exit bracket work on the replica's event goroutine; nested
// brackets (a verification completing inline inside a handler) count once.
func (n *nodeTrace) enter() {
	if n.depth == 0 {
		n.enteredAt = time.Now()
	}
	n.depth++
}

func (n *nodeTrace) exit() {
	if n.depth--; n.depth == 0 && n.t.on.Load() {
		n.busyNs.Add(int64(time.Since(n.enteredAt)))
	}
}

// --- engine.Protocol ---

// tracedProto times the protocol's event handlers.
type tracedProto struct {
	inner engine.Protocol
	t     *tracer
	group int
	n     *nodeTrace
}

// tracedReporter forwards engine.StatusReporter: runtime.Node.Status, the
// shard health monitor and lease-grant arming type-assert it, so hiding it
// would silently turn leased reads off.
type tracedReporter struct {
	*tracedProto
	sr engine.StatusReporter
}

func (r tracedReporter) Status() engine.Status { return r.sr.Status() }

// protocol wraps a NewProtocol constructor. The group is read from the
// trusted namespace the shard layer assigns (namespace s+1 for shard s).
func (t *tracer) protocol(newFn func(engine.Config) engine.Protocol) func(engine.Config) engine.Protocol {
	if t == nil {
		return newFn
	}
	return func(cfg engine.Config) engine.Protocol {
		p := &tracedProto{inner: newFn(cfg), t: t, group: max(int(cfg.TrustedNamespace)-1, 0)}
		if sr, ok := p.inner.(engine.StatusReporter); ok {
			return tracedReporter{p, sr}
		}
		return p
	}
}

func (p *tracedProto) Init(env engine.Env) {
	p.n = p.t.node(p.group, env.ID())
	p.inner.Init(&tracedEnv{Env: env, n: p.n})
}

func (p *tracedProto) OnRequest(req *types.ClientRequest) {
	p.n.dequeued(req)
	p.n.enter()
	if p.n.primary {
		if _, seen := p.n.admitted[req.Key()]; !seen {
			p.n.admitted[req.Key()] = time.Now()
		}
	}
	p.inner.OnRequest(req)
	p.n.exit()
}

func (p *tracedProto) OnMessage(from types.ReplicaID, m types.Message) {
	p.n.dequeued(m)
	p.n.enter()
	p.inner.OnMessage(from, m)
	p.n.exit()
}

func (p *tracedProto) OnTimer(id types.TimerID) {
	p.n.enter()
	p.inner.OnTimer(id)
	p.n.exit()
}

// --- engine.Env ---

// tracedEnv times execution, verification and trusted accesses, and the
// primary's batch wait (admission to the Preprepare broadcast).
type tracedEnv struct {
	engine.Env
	n *nodeTrace
}

func (e *tracedEnv) Broadcast(m types.Message) {
	if pp, ok := m.(*types.Preprepare); ok && e.n.primary && pp.Batch != nil {
		now := time.Now()
		for _, r := range pp.Batch.Requests {
			if at, ok := e.n.admitted[r.Key()]; ok {
				delete(e.n.admitted, r.Key())
				if e.n.t.on.Load() {
					e.n.t.batchWait.add(now.Sub(at))
				}
			}
		}
	}
	e.Env.Broadcast(m)
}

func (e *tracedEnv) Trusted() trusted.Component {
	return tracedTC{Component: e.Env.Trusted(), t: e.n.t}
}

func (e *tracedEnv) VerifyAttestation(a *types.Attestation) bool {
	if e.n.t.on.Load() {
		e.n.t.verifies.Add(1)
	}
	return e.Env.VerifyAttestation(a)
}

func (e *tracedEnv) VerifyAttestationAsync(a *types.Attestation, done func(ok bool)) {
	t := e.n.t
	if t.on.Load() {
		t.verifies.Add(1)
	}
	start := time.Now()
	inline := true
	e.Env.VerifyAttestationAsync(a, func(ok bool) {
		if inline { // memo hit or no pool: completed inside this handler
			done(ok)
			return
		}
		if t.on.Load() {
			t.verifyWait.add(time.Since(start))
		}
		e.n.enter()
		done(ok)
		e.n.exit()
	})
	inline = false
}

func (e *tracedEnv) Execute(seq types.SeqNum, b *types.Batch) []types.Result {
	start := time.Now()
	res := e.Env.Execute(seq, b)
	t := e.n.t
	if !t.on.Load() {
		return res
	}
	t.execNs.Add(int64(time.Since(start)))
	if e.n.primary {
		t.batches.Add(1)
		t.batchOps.Add(int64(len(b.Requests)))
		for _, r := range b.Requests {
			if len(r.Op) > 0 && kvstore.OpCode(r.Op[0]) == kvstore.OpLeaseGrant {
				t.leaseGrants.Add(1)
			}
		}
	}
	return res
}

func (e *tracedEnv) Defer(fn func()) {
	e.Env.Defer(func() {
		e.n.enter()
		fn()
		e.n.exit()
	})
}

// --- trusted.Component ---

// tracedTC counts and times attested accesses. With the enclave latency
// emulated, the time is the modelled sleep as the OS delivered it.
type tracedTC struct {
	trusted.Component
	t *tracer
}

func (c tracedTC) note(start time.Time) {
	if c.t.on.Load() {
		c.t.tcCalls.Add(1)
		c.t.tcNs.Add(int64(time.Since(start)))
	}
}

func (c tracedTC) AppendF(q uint32, x types.Digest) (*types.Attestation, error) {
	defer c.note(time.Now())
	return c.Component.AppendF(q, x)
}

func (c tracedTC) Append(q uint32, k uint64, x types.Digest) (*types.Attestation, error) {
	defer c.note(time.Now())
	return c.Component.Append(q, k, x)
}

func (c tracedTC) Lookup(q uint32, k uint64) (*types.Attestation, error) {
	defer c.note(time.Now())
	return c.Component.Lookup(q, k)
}

func (c tracedTC) Create(q uint32, k uint64) (*types.Attestation, error) {
	defer c.note(time.Now())
	return c.Component.Create(q, k)
}

// --- per-layer metrics ---

// wireCost replays captured envelopes of one kind through wire.Encode and
// wire.Decode and returns the mean µs per message of each and the mean
// frame size.
func wireCost(envs []*wire.Envelope) (encUS, decUS, bytes float64) {
	if len(envs) == 0 {
		return 0, 0, 0
	}
	var frames [][]byte
	for _, env := range envs {
		fr, err := wire.Encode(env)
		if err != nil {
			continue
		}
		frames = append(frames, fr)
		bytes += float64(len(fr))
	}
	if len(frames) == 0 {
		return 0, 0, 0
	}
	bytes /= float64(len(frames))
	// Repeat the sample until each side has run for a few milliseconds.
	reps := 0
	var enc, dec time.Duration
	for enc+dec < 20*time.Millisecond {
		t0 := time.Now()
		for _, env := range envs {
			_, _ = wire.Encode(env) // encodability was checked above
		}
		t1 := time.Now()
		for _, fr := range frames {
			_, _ = wire.Decode(fr) // frames came from wire.Encode
		}
		enc, dec = enc+t1.Sub(t0), dec+time.Since(t1)
		reps++
	}
	return float64(enc) / 1e3 / float64(reps*len(envs)), float64(dec) / 1e3 / float64(reps*len(frames)), bytes
}

// metrics derives the per-layer metrics; ops is the number of operations
// committed in the window, secs its length, gets the reads among them.
func (t *tracer) metrics(ops, secs, gets float64) map[string]metric {
	if t == nil {
		return nil
	}
	out := map[string]metric{}
	set := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }

	set("client.presend_us", "us", t.presend.quantileUS(50))

	t.capMu.Lock()
	captured := t.captured
	t.capMu.Unlock()
	var msgs, encOp, decOp, bytesOp float64
	for k := msgKind(0); k < numKinds; k++ {
		per := float64(t.sends[k].Load()) / ops
		enc, dec, size := wireCost(captured[k])
		if k != kindOther {
			name := kindNames[k]
			set("transport.msgs_per_op."+name, "count", per)
			set("wire.encode_us."+name, "us", enc)
			set("wire.decode_us."+name, "us", dec)
			set("wire.bytes."+name, "B", size)
		}
		msgs += per
		encOp += per * enc
		decOp += per * dec
		bytesOp += per * size
	}
	set("transport.msgs_per_op", "count", msgs)
	set("transport.send_us", "us", float64(t.sendNs.Load())/1e3/float64(max(t.sendCalls.Load(), 1)))
	set("wire.encode_us_per_op", "us", encOp)
	set("wire.decode_us_per_op", "us", decOp)
	set("wire.bytes_per_op", "B", bytesOp)

	set("runtime.queue_wait_us.p50", "us", t.queueWait.quantileUS(50))
	set("runtime.queue_wait_us.p99", "us", t.queueWait.quantileUS(99))

	var primaryNs, backupNs int64
	var primaries, backups float64
	t.mu.Lock()
	for _, n := range t.nodes {
		if n.primary {
			primaryNs += n.busyNs.Load()
			primaries++
		} else {
			backupNs += n.busyNs.Load()
			backups++
		}
	}
	t.mu.Unlock()
	set("protocol.busy_frac.primary", "ratio", float64(primaryNs)/1e9/secs/max(primaries, 1))
	set("protocol.busy_us_per_op.primary", "us", float64(primaryNs)/1e3/ops)
	set("protocol.busy_us_per_op.backup", "us", float64(backupNs)/1e3/ops*max(primaries, 1)/max(backups, 1))

	set("engine.batch_wait_us", "us", t.batchWait.quantileUS(50))
	set("engine.ops_per_batch", "count", float64(t.batchOps.Load())/float64(max(t.batches.Load(), 1)))

	set("trusted.accesses_per_op", "count", float64(t.tcCalls.Load())/ops)
	set("trusted.access_us", "us", float64(t.tcNs.Load())/1e3/float64(max(t.tcCalls.Load(), 1)))

	set("crypto.verifies_per_op", "count", float64(t.verifies.Load())/ops)
	set("crypto.verify_wait_us", "us", t.verifyWait.quantileUS(50))

	set("kvstore.exec_us_per_op", "us", float64(t.execNs.Load())/1e3/ops)

	hit := 0.0
	if gets > 0 {
		hit = 1 - float64(t.leaseFallbacksWindow.Load())/gets
	}
	set("shard.lease_hit_ratio", "ratio", hit)
	set("shard.lease_grants_per_s", "1/s", float64(t.leaseGrants.Load())/secs)
	return out
}

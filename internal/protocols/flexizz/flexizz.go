// Package flexizz implements Flexi-ZZ (paper Section 8.3, Figure 4): a
// single-phase speculative FlexiTrust protocol derived from Zyzzyva/MinZZ,
// on n = 3f+1 replicas.
//
// Common case:
//
//	client → primary: ⟨T⟩c
//	primary: {k, σ} := AppendF(q, Δ); broadcast Preprepare(⟨T⟩c, Δ, k, v, σ);
//	         execute speculatively in k order; respond
//	replica: verify σ; execute speculatively in k order; respond
//	client: 2f+1 matching responses in matching views
//
// Unlike Zyzzyva and MinZZ, whose fast path needs responses from *all*
// replicas, Flexi-ZZ needs only n−f = 2f+1, so a single crashed replica
// does not knock it off the single-round path (the paper's Figure 7). The
// primary cannot equivocate — sequence numbers come from its trusted
// counter — so no second phase is needed before speculative execution, and
// instances run fully in parallel.
//
// The view change (Section 8.3) is deliberately simple: ViewChange messages
// carry all received Preprepares; the new primary creates a fresh counter
// incarnation, re-proposes every attested slot and fills gaps with no-ops.
// Replicas that executed a transaction dropped by the new view roll back to
// their last stable checkpoint.
package flexizz

import (
	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/obs"
	"flexitrust/internal/protocols/common"
	"flexitrust/internal/types"
)

// counterID is the primary's sequence-number counter.
const counterID = 0

// Meta describes Flexi-ZZ for the Figure 1 matrix.
var Meta = engine.Meta{
	Name:               "Flexi-ZZ",
	Replicas:           func(f int) int { return 3*f + 1 },
	Phases:             1,
	TrustedAbstraction: "counter",
	BFTLiveness:        true,
	OutOfOrder:         true,
	TrustedMemory:      "low",
	PrimaryOnlyTC:      true,
	ClientReplies:      func(n, f int) int { return 2*f + 1 },
	Speculative:        true,
}

// Protocol is one replica's Flexi-ZZ instance.
type Protocol struct {
	common.Base

	preprepares map[types.SeqNum]*types.Preprepare
	curEpoch    uint32
	// pendingForward tracks requests forwarded to the primary awaiting a
	// Preprepare; expiry triggers a view change (the paper's view-change
	// trigger for this protocol).
	pendingForward map[types.RequestKey]bool

	// acks implement the sequential ablation (oFlexi-ZZ): with parallelism
	// disabled, the primary waits for a 2f+1 acknowledgement quorum per
	// instance before proposing the next.
	acks      *engine.QuorumSet
	lastAcked types.SeqNum

	// qcs holds encoded quorum certificates assembled from the sequential
	// ablation's 2f+1 acknowledgement quorums (2f acks plus the primary).
	qcs map[types.SeqNum][]byte

	// win holds windowed-attestation state (Cfg.AttestWindow > 1): one
	// AppendF certifies a chained window of batches instead of one per
	// batch; speculative execution waits for the covering certificate.
	win *common.WindowState
}

// New constructs a Flexi-ZZ replica for cfg.
func New(cfg engine.Config) *Protocol {
	p := &Protocol{
		preprepares:    make(map[types.SeqNum]*types.Preprepare),
		pendingForward: make(map[types.RequestKey]bool),
		acks:           engine.NewQuorumSet(),
		qcs:            make(map[types.SeqNum][]byte),
		win:            common.NewWindowState(cfg.AttestWindow),
	}
	p.Cfg = cfg
	p.VCQuorum = cfg.VoteQuorum2f1()
	p.CkptQuorum = cfg.VoteQuorum2f1()
	p.CaptureSnapshots = cfg.CaptureSnapshots
	if !cfg.Parallel {
		p.SeqReady = func() bool { return p.lastAcked >= p.LastProposed }
	}
	p.StableWindowAnchor = true
	return p
}

// Init implements engine.Protocol.
func (p *Protocol) Init(env engine.Env) {
	p.InitBase(env, p.Cfg, p, p.respond)
	if p.win.Enabled() {
		p.win.Reset(0, 0, 1)
		common.RegisterWindowAudit(&p.Cfg)
	}
}

// OnRequest implements engine.Protocol.
func (p *Protocol) OnRequest(req *types.ClientRequest) { p.HandleRequest(req) }

// OnMessage implements engine.Protocol.
func (p *Protocol) OnMessage(from types.ReplicaID, m types.Message) {
	switch msg := m.(type) {
	case *types.Preprepare:
		p.onPreprepare(from, msg)
	case *types.Prepare:
		p.onAck(from, msg)
	case *types.WindowAttest:
		p.onWindowAttest(from, msg)
	case *types.Checkpoint:
		p.HandleCheckpoint(msg)
	case *types.ViewChange:
		p.HandleViewChange(msg)
	case *types.NewView:
		p.HandleNewView(from, msg)
	case *types.Forward:
		p.HandleForward(msg)
	case *types.ClientResend:
		p.HandleResend(msg.Request)
	}
}

// OnTimer implements engine.Protocol.
func (p *Protocol) OnTimer(id types.TimerID) {
	if id.Kind == types.TimerWindowFlush {
		// A stale deadline from an earlier primaryship carries that view's id
		// and must not flush the current partial window early.
		if p.win.Enabled() && p.IsPrimary() && !p.InViewChange && id.View == p.View {
			p.flushWindow()
		}
		return
	}
	p.HandleBaseTimer(id)
}

// ProposeBatch implements common.Hooks: one AppendF binds the batch to the
// next slot; the primary executes speculatively like everyone else.
func (p *Protocol) ProposeBatch(b *types.Batch) {
	if p.win.Enabled() {
		p.proposeWindowed(b)
		return
	}
	att, err := p.Env.Trusted().AppendF(counterID, b.Digest)
	if err != nil {
		p.Env.Logf("flexizz: AppendF failed: %v", err)
		return
	}
	seq := types.SeqNum(att.Value)
	p.LastProposed = seq
	pp := &types.Preprepare{View: p.View, Seq: seq, Batch: b, Attest: att}
	p.preprepares[seq] = pp
	p.Env.Broadcast(pp)
	// The primary executes speculatively too, but on the execution
	// pipeline stage, not inline with proposal emission.
	p.Env.Defer(func() { p.Exec.Commit(seq, b) })
}

// proposeWindowed assigns the next slot locally, folds the batch into the
// open window's chain, and defers the counter access to the window flush.
// The primary still executes speculatively right away — it produced the
// chain, so it already trusts the ordering it will attest.
func (p *Protocol) proposeWindowed(b *types.Batch) {
	seq := p.LastProposed + 1
	p.LastProposed = seq
	pp := &types.Preprepare{View: p.View, Seq: seq, Batch: b}
	p.preprepares[seq] = pp
	p.Env.Broadcast(pp)
	p.Env.Defer(func() { p.Exec.Commit(seq, b) })
	if p.win.Append(seq, b.Digest) {
		p.flushWindow()
	} else if p.win.Len() == 1 {
		p.Env.SetTimer(types.TimerID{Kind: types.TimerWindowFlush, View: p.View},
			p.Cfg.BatchTimeout)
	}
}

// flushWindow spends the window's one AppendF and broadcasts the covering
// certificate so backups can release their held slots. If the window stays
// open — AppendF failed — the deadline is re-armed so the broadcast batches
// do not sit unattested until a view change.
func (p *Protocol) flushWindow() {
	if enc := p.win.Flush(p.Env, &p.Cfg, counterID); enc != nil {
		p.Env.Broadcast(&types.WindowAttest{Replica: p.Env.ID(), Cert: enc})
	}
	if p.win.Open() {
		p.Env.SetTimer(types.TimerID{Kind: types.TimerWindowFlush, View: p.View},
			p.Cfg.BatchTimeout)
	}
}

// onWindowAttest verifies a covering certificate from the primary and
// releases the speculative execution of every slot it certifies.
func (p *Protocol) onWindowAttest(from types.ReplicaID, m *types.WindowAttest) {
	if !p.win.Enabled() || p.InViewChange || from != p.PrimaryID() || m.Replica != from {
		return
	}
	wc, err := crypto.DecodeWindowCert(m.Cert)
	if err != nil {
		return
	}
	a := wc.Att
	if a.Replica != from || a.Counter != counterID || a.Epoch != p.curEpoch ||
		wc.View != p.View || !p.Env.Crypto().VerifyWC(wc) {
		return
	}
	if p.Cfg.EnableQC {
		p.Env.VerifyAttestationAsync(a, func(ok bool) {
			if ok && !p.InViewChange && wc.View == p.View && a.Epoch == p.curEpoch {
				p.admitWindow(wc, m.Cert)
			}
		})
		return
	}
	if !p.Env.VerifyAttestation(a) {
		return
	}
	p.admitWindow(wc, m.Cert)
}

// admitWindow installs a verified certificate and speculatively executes
// the stashed preprepares it (and any unblocked successors) certify.
func (p *Protocol) admitWindow(wc *crypto.WindowCert, enc []byte) {
	for _, pp := range p.win.Admit(wc, enc) {
		if p.preprepareGuards(p.PrimaryID(), pp) {
			p.accept(pp)
		}
	}
}

// onPreprepare speculatively executes the primary's proposal. With QCs
// enabled the attestation check runs off the event goroutine (batched,
// amortized); the continuation re-validates the guards because the protocol
// may have moved on (view change, checkpoint) while the check was in flight.
func (p *Protocol) onPreprepare(from types.ReplicaID, pp *types.Preprepare) {
	if !p.preprepareGuards(from, pp) {
		return
	}
	if p.win.Enabled() {
		// Windowed mode: proposals carry no per-batch attestation; hold
		// speculative execution until the covering certificate lands.
		if pp.Attest != nil {
			return
		}
		if d, ok := p.win.CoveredDigest(pp.Seq); ok {
			if d == pp.Batch.Digest {
				p.accept(pp)
			}
			return
		}
		p.win.Stash(pp)
		return
	}
	a := pp.Attest
	if a == nil || a.Replica != from || a.Counter != counterID || a.Epoch != p.curEpoch ||
		types.SeqNum(a.Value) != pp.Seq || a.Digest != pp.Batch.Digest {
		return
	}
	if p.Cfg.EnableQC {
		p.Env.VerifyAttestationAsync(a, func(ok bool) {
			if ok && p.preprepareGuards(from, pp) && a.Epoch == p.curEpoch {
				p.accept(pp)
			}
		})
		return
	}
	if !p.Env.VerifyAttestation(a) {
		return
	}
	p.accept(pp)
}

// preprepareGuards holds the cheap structural checks that must pass both
// before verification is dispatched and again when its result lands.
func (p *Protocol) preprepareGuards(from types.ReplicaID, pp *types.Preprepare) bool {
	if p.InViewChange || pp.View != p.View || from != p.PrimaryID() {
		return false
	}
	if _, dup := p.preprepares[pp.Seq]; dup || pp.Seq <= p.GCFloor() {
		return false
	}
	return true
}

// accept installs a verified Preprepare and executes it speculatively.
func (p *Protocol) accept(pp *types.Preprepare) {
	p.preprepares[pp.Seq] = pp
	for _, r := range pp.Batch.Requests {
		delete(p.pendingForward, r.Key())
	}
	p.Exec.Commit(pp.Seq, pp.Batch)
	if !p.Cfg.Parallel {
		// Sequential ablation: acknowledge so the primary's pipeline can
		// release the next instance.
		p.Env.Send(p.PrimaryID(), &types.Prepare{
			View: pp.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: p.Env.ID(),
		})
	}
	p.Batcher.Kick()
}

// onAck counts sequential-ablation acknowledgements at the primary; a 2f+1
// quorum (2f others plus the primary) releases the next instance.
func (p *Protocol) onAck(from types.ReplicaID, m *types.Prepare) {
	if p.Cfg.Parallel || !p.IsPrimary() || m.View != p.View || m.Replica != from {
		return
	}
	n := p.acks.Add(m.View, m.Seq, m.Digest, m.Replica)
	if n >= 2*p.Cfg.F && m.Seq > p.lastAcked {
		if p.Cfg.EnableQC {
			if _, have := p.qcs[m.Seq]; !have {
				voters := append(p.acks.Voters(m.View, m.Seq, m.Digest), p.Env.ID())
				qc := crypto.AssembleQC(m.View, m.Seq, m.Digest, types.ZeroDigest, p.Cfg.N, voters)
				p.qcs[m.Seq] = qc.Encode()
				p.Cfg.Observer.Metrics().Histogram(obs.MQCSize).Observe(int64(qc.SignerCount()))
			}
		}
		p.lastAcked = m.Seq
		p.acks.GC(m.Seq)
		p.Batcher.Kick()
	}
}

// respond sends the speculative execution result.
func (p *Protocol) respond(seq types.SeqNum, batch *types.Batch, results []types.Result) {
	if len(results) == 0 {
		return
	}
	p.RespondAndCache(&types.Response{
		Replica:     p.Env.ID(),
		View:        p.View,
		Seq:         seq,
		Digest:      batch.Digest,
		Results:     results,
		Speculative: true,
	})
}

// --- common.Hooks ---

// BuildViewChange implements common.Hooks: carry all received Preprepares
// (each self-certifying through its attestation). In windowed mode a
// preprepare is not self-certifying — slots travel as PreparedProofs
// bundling the covering WindowCert, and uncovered slots are dropped (no
// replica executed them against an attested chain).
func (p *Protocol) BuildViewChange(v types.View) *types.ViewChange {
	vc := &types.ViewChange{StableSeq: p.Ckpt.StableSeq()}
	if p.win.Enabled() {
		if p.IsPrimary() && p.win.Open() {
			// Honest deposed primary: attest the in-flight suffix so its
			// slots survive into the proof set.
			p.flushWindow()
		}
		for seq, pp := range p.preprepares {
			if seq <= vc.StableSeq {
				continue
			}
			enc, ok := p.win.Cert(seq)
			if !ok {
				continue
			}
			vc.Prepared = append(vc.Prepared, &types.PreparedProof{Preprepare: pp, WC: enc})
		}
		return vc
	}
	for seq, pp := range p.preprepares {
		if seq > vc.StableSeq {
			vc.Preprepares = append(vc.Preprepares, pp)
		}
	}
	return vc
}

// ValidateViewChange implements common.Hooks. Windowed proofs are checked as
// one chained set (attestor, epoch, and progression pinned); the per-batch
// path carries bare Preprepares only, so a Prepared list there is rejected
// rather than silently merged unvalidated.
func (p *Protocol) ValidateViewChange(vc *types.ViewChange) bool {
	if p.win.Enabled() {
		return len(vc.Preprepares) == 0 &&
			common.ValidWindowProofs(p.Env, &p.Cfg, counterID, p.View, p.curEpoch, vc.Prepared)
	}
	if len(vc.Prepared) != 0 {
		return false
	}
	for _, pp := range vc.Preprepares {
		if pp == nil || pp.Attest == nil || !p.Env.VerifyAttestation(pp.Attest) {
			return false
		}
	}
	return true
}

// BuildNewView implements common.Hooks. Windowed slot reports are merged by
// common.CollectWindowSlots (chained-set validation, lowest-counter-value
// conflict resolution); the per-batch path merges the self-certifying
// Preprepares, where the attested value==seq binding makes conflicting
// reports for one slot impossible within an epoch.
func (p *Protocol) BuildNewView(v types.View, vcs []*types.ViewChange) *types.NewView {
	stable := types.SeqNum(0)
	slots := make(map[types.SeqNum]*types.Preprepare)
	if p.win.Enabled() {
		stable, slots = common.CollectWindowSlots(p.Env, &p.Cfg, counterID, p.View, p.curEpoch, vcs)
	} else {
		for _, vc := range vcs {
			if vc.StableSeq > stable {
				stable = vc.StableSeq
			}
			for _, pp := range vc.Preprepares {
				slots[pp.Seq] = pp
			}
		}
	}
	maxSeq := stable
	for seq := range slots {
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	createAtt, err := p.Env.Trusted().Create(counterID, uint64(stable))
	if err != nil {
		p.Env.Logf("flexizz: Create failed: %v", err)
		return &types.NewView{View: v, ViewChanges: vcs}
	}
	p.curEpoch = createAtt.Epoch
	nv := &types.NewView{View: v, ViewChanges: vcs, CounterInit: createAtt}
	if p.win.Enabled() {
		// Windowed re-proposal: the whole range lands in one certificate
		// chained from the new view's genesis (the window cap is ignored
		// here — the range is bounded by the checkpoint interval).
		p.win.Reset(v, stable, createAtt.Value+1)
		for seq := stable + 1; seq <= maxSeq; seq++ {
			batch := common.NoopBatch()
			if pp, ok := slots[seq]; ok {
				batch = pp.Batch
			}
			nv.Proposals = append(nv.Proposals, &types.Preprepare{View: v, Seq: seq, Batch: batch})
			p.win.Append(seq, batch.Digest)
		}
		if p.win.Open() {
			nv.WindowCert = p.win.Flush(p.Env, &p.Cfg, counterID)
		}
		p.LastProposed = maxSeq
		p.lastAcked = maxSeq
		p.adoptNewView(nv, stable)
		return nv
	}
	for seq := stable + 1; seq <= maxSeq; seq++ {
		batch := common.NoopBatch()
		if pp, ok := slots[seq]; ok {
			batch = pp.Batch
		}
		att, err := p.Env.Trusted().AppendF(counterID, batch.Digest)
		if err != nil {
			p.Env.Logf("flexizz: re-propose AppendF failed: %v", err)
			return nv
		}
		nv.Proposals = append(nv.Proposals, &types.Preprepare{
			View: v, Seq: types.SeqNum(att.Value), Batch: batch, Attest: att,
		})
	}
	p.LastProposed = maxSeq
	// Re-proposed slots came from a view-change quorum; the sequential
	// ablation's pipeline starts unblocked in the new view.
	p.lastAcked = maxSeq
	p.adoptNewView(nv, stable)
	return nv
}

// ProcessNewView implements common.Hooks.
func (p *Protocol) ProcessNewView(nv *types.NewView) bool {
	if nv.CounterInit == nil || !p.Env.VerifyAttestation(nv.CounterInit) {
		return false
	}
	primary := types.Primary(nv.View, p.Cfg.N)
	stable := types.SeqNum(nv.CounterInit.Value)
	if p.win.Enabled() {
		wc, ok := common.ValidateNewViewWindow(p.Env, counterID, nv, primary)
		if !ok {
			return false
		}
		// Cross-check the re-proposals against the slots resolvable from the
		// embedded quorum (under the CURRENT epoch — before adopting the new
		// incarnation): a new primary re-binding a reported slot is rejected.
		if !common.CheckNewViewProposals(p.Env, &p.Cfg, counterID, p.View, p.curEpoch, nv) {
			return false
		}
		p.curEpoch = nv.CounterInit.Epoch
		p.win.Reset(nv.View, stable, nv.CounterInit.Value+1)
		if wc != nil {
			p.win.Admit(wc, nv.WindowCert)
		}
		p.adoptNewView(nv, stable)
		return true
	}
	for _, pp := range nv.Proposals {
		a := pp.Attest
		if a == nil || a.Replica != primary || a.Epoch != nv.CounterInit.Epoch ||
			types.SeqNum(a.Value) != pp.Seq || a.Digest != pp.Batch.Digest ||
			!p.Env.VerifyAttestation(a) {
			return false
		}
	}
	p.curEpoch = nv.CounterInit.Epoch
	p.adoptNewView(nv, stable)
	return true
}

// adoptNewView installs the re-proposed log, rolling back any speculative
// suffix that conflicts with it.
func (p *Protocol) adoptNewView(nv *types.NewView, stable types.SeqNum) {
	if p.mustRollback(nv, stable) {
		resume := p.RollbackToStable()
		p.Env.Logf("flexizz: rolled back speculative suffix to seq %d", resume)
		// Replay the retained prefix between our (possibly older) local
		// snapshot and the quorum's stable point.
		for seq := resume + 1; seq <= stable; seq++ {
			if pp, ok := p.preprepares[seq]; ok {
				p.Exec.Commit(seq, pp.Batch)
			}
		}
	}
	for seq := range p.preprepares {
		if seq > stable {
			delete(p.preprepares, seq)
		}
	}
	for _, pp := range nv.Proposals {
		p.preprepares[pp.Seq] = pp
		p.Exec.Commit(pp.Seq, pp.Batch) // re-execute / fill, in order
	}
}

// mustRollback reports whether this replica speculatively executed a slot
// the new view assigns differently (or dropped).
func (p *Protocol) mustRollback(nv *types.NewView, stable types.SeqNum) bool {
	if p.Exec.LastExecuted() <= stable {
		return false
	}
	assigned := make(map[types.SeqNum]types.Digest, len(nv.Proposals))
	for _, pp := range nv.Proposals {
		assigned[pp.Seq] = pp.Batch.Digest
	}
	for seq := stable + 1; seq <= p.Exec.LastExecuted(); seq++ {
		pp, executedHere := p.preprepares[seq]
		if !executedHere {
			continue
		}
		if d, ok := assigned[seq]; !ok || d != pp.Batch.Digest {
			return true
		}
	}
	return false
}

// OnStableCheckpoint implements common.Hooks.
func (p *Protocol) OnStableCheckpoint(floor types.SeqNum) {
	if p.win.Enabled() {
		p.win.GC(floor)
	}
	common.TruncateSlots(p.preprepares, floor)
	common.TruncateSlots(p.qcs, floor)
}

// CheckpointAttestation implements common.Hooks.
func (p *Protocol) CheckpointAttestation(types.SeqNum, types.Digest) *types.Attestation { return nil }

// SlotDigest reports the batch digest this replica holds for a sequence
// number, for tests asserting slot bindings survive view changes.
func (p *Protocol) SlotDigest(seq types.SeqNum) (types.Digest, bool) {
	pp, ok := p.preprepares[seq]
	if !ok || pp.Batch == nil {
		return types.ZeroDigest, false
	}
	return pp.Batch.Digest, true
}

// Package flexibft implements Flexi-BFT (paper Section 8.2, Figure 3): a
// two-phase FlexiTrust protocol derived from MinBFT/PBFT that runs on
// n = 3f+1 replicas with 2f+1 vote quorums and touches the trusted counter
// exactly once per consensus instance, at the primary only.
//
// Failure-free path:
//
//	client → primary: ⟨T⟩c
//	primary: {k, σ} := AppendF(q, Δ);  broadcast Preprepare(⟨T⟩c, Δ, k, v, σ)
//	replica: verify σ; broadcast Prepare(Δ, k, v, σ)
//	replica: on 2f+1 matching Prepares → commit; execute in k order; respond
//	client: f+1 matching responses
//
// Because the trusted component increments the counter internally
// (AppendF), the primary cannot equivocate, a Preprepare alone marks a
// transaction prepared, and instances may run fully in parallel: ordering is
// enforced at execution time only. The o-variant (sequential, the paper's
// ablation) is the same code with Config.Parallel=false.
package flexibft

import (
	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/obs"
	"flexitrust/internal/protocols/common"
	"flexitrust/internal/types"
)

// counterID is the trusted counter the primary allocates sequence numbers
// from (the paper's q).
const counterID = 0

// Meta describes Flexi-BFT for the Figure 1 matrix.
var Meta = engine.Meta{
	Name:               "Flexi-BFT",
	Replicas:           func(f int) int { return 3*f + 1 },
	Phases:             2,
	TrustedAbstraction: "counter",
	BFTLiveness:        true,
	OutOfOrder:         true,
	TrustedMemory:      "low",
	PrimaryOnlyTC:      true,
	ClientReplies:      func(n, f int) int { return f + 1 },
}

// Protocol is one replica's Flexi-BFT instance.
type Protocol struct {
	common.Base

	preprepares map[types.SeqNum]*types.Preprepare
	prepares    *engine.QuorumSet
	committed   map[types.SeqNum]bool
	// curEpoch is the expected counter incarnation; it advances when a new
	// primary Create()s a fresh counter after a view change.
	curEpoch uint32
	// qcs holds the encoded quorum certificate assembled when each slot
	// committed (EnableQC); carried in view-change prepared proofs and
	// GC'd at stable checkpoints.
	qcs map[types.SeqNum][]byte
	// win is the windowed-attestation state (Cfg.AttestWindow > 1): one
	// AppendF certifies a chained window of batches instead of one per
	// batch. Disabled, every path below falls through to the per-batch
	// behavior unchanged.
	win *common.WindowState
}

// New constructs a Flexi-BFT replica for cfg.
func New(cfg engine.Config) *Protocol {
	p := &Protocol{
		preprepares: make(map[types.SeqNum]*types.Preprepare),
		prepares:    engine.NewQuorumSet(),
		committed:   make(map[types.SeqNum]bool),
		qcs:         make(map[types.SeqNum][]byte),
		win:         common.NewWindowState(cfg.AttestWindow),
	}
	p.Cfg = cfg
	p.VCQuorum = cfg.VoteQuorum2f1()
	p.CkptQuorum = cfg.VoteQuorum2f1()
	return p
}

// Init implements engine.Protocol.
func (p *Protocol) Init(env engine.Env) {
	p.InitBase(env, p.Cfg, p, p.respond)
	if p.win.Enabled() {
		// View 0 genesis: nothing covered, the counter's first AppendF
		// mints value 1.
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
		p.onPrepare(from, msg)
	case *types.Checkpoint:
		p.HandleCheckpoint(msg)
	case *types.ViewChange:
		p.HandleViewChange(msg)
	case *types.NewView:
		p.HandleNewView(from, msg)
	case *types.WindowAttest:
		p.onWindowAttest(from, msg)
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

// ProposeBatch implements common.Hooks: the single trusted-component access
// of the instance binds the batch digest to the next counter value.
func (p *Protocol) ProposeBatch(b *types.Batch) {
	if p.win.Enabled() {
		p.proposeWindowed(b)
		return
	}
	att, err := p.Env.Trusted().AppendF(counterID, b.Digest)
	if err != nil {
		p.Env.Logf("flexibft: AppendF failed: %v", err)
		return
	}
	seq := types.SeqNum(att.Value)
	p.LastProposed = seq
	pp := &types.Preprepare{View: p.View, Seq: seq, Batch: b, Attest: att}
	p.accept(pp)
	p.Env.Broadcast(pp)
	// The primary's Preprepare doubles as its Prepare vote.
	p.addPrepare(&types.Prepare{View: p.View, Seq: seq, Digest: b.Digest, Replica: p.Env.ID()})
}

// proposeWindowed is ProposeBatch under windowed attestation: the sequence
// number is assigned locally, the batch digest joins the running chain, and
// the counter is touched only when the window flushes. The primary votes
// for its own slot immediately; backups vote once the covering certificate
// arrives.
func (p *Protocol) proposeWindowed(b *types.Batch) {
	seq := p.LastProposed + 1
	p.LastProposed = seq
	pp := &types.Preprepare{View: p.View, Seq: seq, Batch: b}
	p.accept(pp)
	p.Env.Broadcast(pp)
	p.addPrepare(&types.Prepare{View: p.View, Seq: seq, Digest: b.Digest, Replica: p.Env.ID()})
	if p.win.Append(seq, b.Digest) {
		p.flushWindow()
	} else if p.win.Len() == 1 {
		// First batch of a fresh window: bound how long a partial window
		// may sit unattested. Re-arming the same timer id on each new
		// window invalidates the previous window's (now-stale) deadline.
		p.Env.SetTimer(types.TimerID{Kind: types.TimerWindowFlush, View: p.View}, p.Cfg.BatchTimeout)
	}
}

// flushWindow spends the window's single counter access and publishes the
// covering certificate. If the window is still open afterwards — AppendF
// failed and left the batches unattested — the flush deadline is re-armed so
// already-broadcast proposals do not sit voteless until a view change.
func (p *Protocol) flushWindow() {
	if enc := p.win.Flush(p.Env, &p.Cfg, counterID); enc != nil {
		p.Env.Broadcast(&types.WindowAttest{Replica: p.Env.ID(), Cert: enc})
	}
	if p.win.Open() {
		p.Env.SetTimer(types.TimerID{Kind: types.TimerWindowFlush, View: p.View}, p.Cfg.BatchTimeout)
	}
}

// onWindowAttest verifies and admits a covering certificate at a backup,
// then votes for every stashed preprepare it certifies.
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

// admitWindow folds an attestation-verified certificate into the chain and
// votes for the slots it unblocks.
func (p *Protocol) admitWindow(wc *crypto.WindowCert, enc []byte) {
	for _, pp := range p.win.Admit(wc, enc) {
		if p.preprepareGuards(p.PrimaryID(), pp) {
			p.acceptAndVote(p.PrimaryID(), pp)
		}
	}
}

// validAttest checks a Preprepare's attestation binding.
func (p *Protocol) validAttest(from types.ReplicaID, pp *types.Preprepare) bool {
	return p.attestShape(from, pp) && p.Env.VerifyAttestation(pp.Attest)
}

// attestShape checks the structural binding of a Preprepare's attestation
// (everything except the cryptographic verification).
func (p *Protocol) attestShape(from types.ReplicaID, pp *types.Preprepare) bool {
	a := pp.Attest
	if a == nil || a.Replica != from || a.Counter != counterID || a.Epoch != p.curEpoch {
		return false
	}
	return types.SeqNum(a.Value) == pp.Seq && a.Digest == pp.Batch.Digest
}

// onPreprepare handles the primary's proposal at a backup. With EnableQC
// the attestation verification runs off the event goroutine: the parallel
// window keeps many proposals in flight, which is exactly the concurrency a
// batched verifier amortizes across. The continuation re-runs every guard —
// commits, checkpoints, or a view change may have landed in between.
func (p *Protocol) onPreprepare(from types.ReplicaID, pp *types.Preprepare) {
	if p.win.Enabled() {
		// Windowed proposals carry no per-batch attestation; the vote waits
		// for the covering WindowAttest. A certificate that arrived first
		// releases the vote immediately — but only if the digests agree,
		// since the chain, not the preprepare, is authoritative.
		if !p.preprepareGuards(from, pp) || pp.Attest != nil {
			return
		}
		if d, ok := p.win.CoveredDigest(pp.Seq); ok {
			if d == pp.Batch.Digest {
				p.acceptAndVote(from, pp)
			}
			return
		}
		p.win.Stash(pp)
		return
	}
	if !p.preprepareGuards(from, pp) || !p.attestShape(from, pp) {
		return
	}
	if p.Cfg.EnableQC {
		p.Env.VerifyAttestationAsync(pp.Attest, func(ok bool) {
			if ok && p.preprepareGuards(from, pp) && pp.Attest.Epoch == p.curEpoch {
				p.acceptAndVote(from, pp)
			}
		})
		return
	}
	if !p.Env.VerifyAttestation(pp.Attest) {
		return
	}
	p.acceptAndVote(from, pp)
}

// preprepareGuards are the stateful admission checks for a proposal,
// re-run after asynchronous verification completes.
func (p *Protocol) preprepareGuards(from types.ReplicaID, pp *types.Preprepare) bool {
	if p.InViewChange || pp.View != p.View || from != p.PrimaryID() {
		return false
	}
	if _, ok := p.preprepares[pp.Seq]; ok {
		return false // duplicate (the attested counter makes conflicts impossible)
	}
	return pp.Seq > p.GCFloor() && !p.committed[pp.Seq]
}

// acceptAndVote records the proposal and emits this replica's vote.
func (p *Protocol) acceptAndVote(from types.ReplicaID, pp *types.Preprepare) {
	p.accept(pp)
	// Count the primary's proposal as its vote, then add ours.
	p.addPrepare(&types.Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: from})
	prep := &types.Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: p.Env.ID()}
	p.Env.Broadcast(prep)
	p.addPrepare(prep)
}

// accept records a preprepare.
func (p *Protocol) accept(pp *types.Preprepare) {
	p.preprepares[pp.Seq] = pp
}

// onPrepare handles a backup's vote.
func (p *Protocol) onPrepare(from types.ReplicaID, m *types.Prepare) {
	if m.View != p.View || m.Replica != from || m.Seq <= p.GCFloor() {
		return
	}
	p.addPrepare(m)
}

// addPrepare tallies a vote and commits on a 2f+1 quorum.
func (p *Protocol) addPrepare(m *types.Prepare) {
	n := p.prepares.Add(m.View, m.Seq, m.Digest, m.Replica)
	if n < p.Cfg.VoteQuorum2f1() || p.committed[m.Seq] {
		return
	}
	pp, ok := p.preprepares[m.Seq]
	if !ok || pp.Batch.Digest != m.Digest {
		return
	}
	p.committed[m.Seq] = true
	if p.Cfg.EnableQC {
		qc := crypto.AssembleQC(m.View, m.Seq, m.Digest, types.ZeroDigest,
			p.Cfg.N, p.prepares.Voters(m.View, m.Seq, m.Digest))
		p.qcs[m.Seq] = qc.Encode()
		p.Cfg.Observer.Metrics().Histogram(obs.MQCSize).Observe(int64(qc.SignerCount()))
	}
	p.Exec.Commit(m.Seq, pp.Batch)
	p.Batcher.Kick() // sequential variant: next instance may proceed
}

// respond builds the post-execution client response.
func (p *Protocol) respond(seq types.SeqNum, batch *types.Batch, results []types.Result) {
	if len(results) == 0 {
		return // no-op gap filler
	}
	p.RespondAndCache(&types.Response{
		Replica: p.Env.ID(),
		View:    p.View,
		Seq:     seq,
		Digest:  batch.Digest,
		Results: results,
	})
}

// --- common.Hooks: view changes, checkpoints ---

// BuildViewChange implements common.Hooks: the message carries every
// attested Preprepare above the stable checkpoint (the attestation itself
// proves the binding, so no Prepare certificates are needed for slots that
// merely prepared; committed slots survive because f+1 honest replicas hold
// their Preprepare).
func (p *Protocol) BuildViewChange(v types.View) *types.ViewChange {
	if p.win.Enabled() && p.IsPrimary() && p.win.Open() {
		// An honest deposed primary binds its open window before abandoning
		// the view, so every batch it proposed remains provable.
		p.flushWindow()
	}
	vc := &types.ViewChange{StableSeq: p.Ckpt.StableSeq()}
	for seq, pp := range p.preprepares {
		if seq <= vc.StableSeq {
			continue
		}
		if p.win.Enabled() {
			// A slot is provable only through its covering certificate;
			// slots whose certificate never arrived were never voted for
			// here and are dropped.
			enc, ok := p.win.Cert(seq)
			if !ok {
				continue
			}
			vc.Prepared = append(vc.Prepared, &types.PreparedProof{Preprepare: pp, QC: p.qcs[seq], WC: enc})
			continue
		}
		vc.Prepared = append(vc.Prepared, &types.PreparedProof{Preprepare: pp, QC: p.qcs[seq]})
	}
	return vc
}

// ValidateViewChange implements common.Hooks. Attestation re-checks hit the
// verification memo for every slot this replica already processed; windowed
// proofs are validated as one chained set (attestor, epoch, and chain
// progression pinned — see common.ValidWindowProofs); attached quorum
// certificates must decode and pass one VerifyQC against the 2f+1 vote
// quorum.
func (p *Protocol) ValidateViewChange(vc *types.ViewChange) bool {
	if p.win.Enabled() &&
		!common.ValidWindowProofs(p.Env, &p.Cfg, counterID, p.View, p.curEpoch, vc.Prepared) {
		return false
	}
	for _, pr := range vc.Prepared {
		pp := pr.Preprepare
		if !p.win.Enabled() {
			if pp == nil || pp.Attest == nil || !p.Env.VerifyAttestation(pp.Attest) {
				return false
			}
		}
		if len(pr.QC) != 0 {
			qc, err := crypto.DecodeQuorumCert(pr.QC)
			if err != nil || qc.Seq != pp.Seq || qc.Digest != pp.Batch.Digest ||
				!p.Env.Crypto().VerifyQC(qc, p.Cfg.VoteQuorum2f1()) {
				return false
			}
		}
	}
	return true
}

// BuildNewView implements common.Hooks: the incoming primary creates a fresh
// counter incarnation seeded below the first slot to re-propose, then
// re-proposes every attested slot it learned (no-ops fill gaps).
func (p *Protocol) BuildNewView(v types.View, vcs []*types.ViewChange) *types.NewView {
	var stable types.SeqNum
	var slots map[types.SeqNum]*types.Preprepare
	if p.win.Enabled() {
		// Windowed proofs are re-validated as chained sets and per-slot
		// conflicts resolved toward the lowest counter value; backups repeat
		// this exact computation in ProcessNewView to check the proposals.
		stable, slots = common.CollectWindowSlots(p.Env, &p.Cfg, counterID, p.View, p.curEpoch, vcs)
	} else {
		stable, slots = collectSlots(vcs)
	}
	maxSeq := stable
	for seq := range slots {
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	createAtt, err := p.Env.Trusted().Create(counterID, uint64(stable))
	if err != nil {
		p.Env.Logf("flexibft: Create failed: %v", err)
		return &types.NewView{View: v, ViewChanges: vcs}
	}
	p.curEpoch = createAtt.Epoch
	nv := &types.NewView{View: v, ViewChanges: vcs, CounterInit: createAtt}
	if p.win.Enabled() {
		// One certificate covers the entire re-proposal range: the chain is
		// re-anchored at the new view's genesis and a single AppendF (value
		// stable+1 under the fresh incarnation) binds every slot.
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
		p.installProposals(nv)
		return nv
	}
	for seq := stable + 1; seq <= maxSeq; seq++ {
		batch := common.NoopBatch()
		if pp, ok := slots[seq]; ok {
			batch = pp.Batch
		}
		att, err := p.Env.Trusted().AppendF(counterID, batch.Digest)
		if err != nil {
			p.Env.Logf("flexibft: re-propose AppendF failed: %v", err)
			return nv
		}
		nv.Proposals = append(nv.Proposals, &types.Preprepare{
			View: v, Seq: types.SeqNum(att.Value), Batch: batch, Attest: att,
		})
	}
	p.LastProposed = maxSeq
	p.installProposals(nv)
	return nv
}

// collectSlots merges the slots reported across a view-change quorum for the
// per-batch path, where each Preprepare carries its own attestation with
// value == seq: one attestation per (epoch, value) makes conflicting reports
// for a slot impossible, so any valid Preprepare is authoritative. The
// windowed path does NOT have that per-slot guarantee and resolves conflicts
// in common.CollectWindowSlots instead.
func collectSlots(vcs []*types.ViewChange) (stable types.SeqNum, slots map[types.SeqNum]*types.Preprepare) {
	slots = make(map[types.SeqNum]*types.Preprepare)
	for _, vc := range vcs {
		if vc.StableSeq > stable {
			stable = vc.StableSeq
		}
		for _, pr := range vc.Prepared {
			if pr.Preprepare != nil {
				slots[pr.Preprepare.Seq] = pr.Preprepare
			}
		}
	}
	return stable, slots
}

// ProcessNewView implements common.Hooks (backup side).
func (p *Protocol) ProcessNewView(nv *types.NewView) bool {
	if nv.CounterInit == nil || !p.Env.VerifyAttestation(nv.CounterInit) {
		return false
	}
	primary := types.Primary(nv.View, p.Cfg.N)
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
		p.win.Reset(nv.View, types.SeqNum(nv.CounterInit.Value), nv.CounterInit.Value+1)
		if wc != nil {
			p.win.Admit(wc, nv.WindowCert)
		}
		p.installProposals(nv)
		for _, pp := range nv.Proposals {
			if pp.Seq <= p.Exec.LastExecuted() {
				continue
			}
			p.addPrepare(&types.Prepare{View: nv.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: primary})
			prep := &types.Prepare{View: nv.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: p.Env.ID()}
			p.Env.Broadcast(prep)
			p.addPrepare(prep)
		}
		return true
	}
	p.curEpoch = nv.CounterInit.Epoch
	for _, pp := range nv.Proposals {
		a := pp.Attest
		if a == nil || a.Replica != primary || a.Epoch != p.curEpoch ||
			types.SeqNum(a.Value) != pp.Seq || a.Digest != pp.Batch.Digest ||
			!p.Env.VerifyAttestation(a) {
			return false
		}
	}
	p.installProposals(nv)
	// Vote for every re-proposed slot in the new view.
	for _, pp := range nv.Proposals {
		if pp.Seq <= p.Exec.LastExecuted() {
			continue
		}
		p.addPrepare(&types.Prepare{View: nv.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: primary})
		prep := &types.Prepare{View: nv.View, Seq: pp.Seq, Digest: pp.Batch.Digest, Replica: p.Env.ID()}
		p.Env.Broadcast(prep)
		p.addPrepare(prep)
	}
	return true
}

// installProposals replaces per-slot state with the new view's proposals.
func (p *Protocol) installProposals(nv *types.NewView) {
	for _, pp := range nv.Proposals {
		p.preprepares[pp.Seq] = pp
		delete(p.committed, pp.Seq)
	}
}

// OnStableCheckpoint implements common.Hooks.
func (p *Protocol) OnStableCheckpoint(floor types.SeqNum) {
	if p.win.Enabled() {
		p.win.GC(floor)
	}
	p.prepares.GC(floor)
	common.TruncateSlots(p.preprepares, floor)
	common.TruncateSlots(p.committed, floor)
	common.TruncateSlots(p.qcs, floor)
}

// CheckpointAttestation implements common.Hooks: FlexiTrust checkpoints need
// no trusted-component access.
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

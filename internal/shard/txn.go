package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"flexitrust/internal/kvstore"
	"flexitrust/internal/txn"
	"flexitrust/internal/types"
)

// Cross-shard transactions: the sharded cluster owns one transaction
// arbiter — a coordinator-side trusted counter in the reserved namespace
// txn.CoordinatorNamespace with its own attestation authority — plus the
// attestation log participants resolve in-doubt transactions against. Every
// Session drives two-phase commits through them (Session.Txn / MultiPut);
// the per-shard prepare/decision operations execute through each group's
// consensus like any other kvstore operation, so prepared intents are
// replicated inside each shard.

// submitShard executes op on one specific group (bypassing key routing —
// transaction decisions and handoff operations target shards, not keys)
// and maintains the group's watermark and metrics like the single-shard
// fast path does.
func (s *Session) submitShard(ctx context.Context, shardIdx int, op *kvstore.Op) ([]byte, error) {
	res, _, _, err := s.submitShardSeq(ctx, shardIdx, op)
	return res, err
}

// submitShardSeq is submitShard exposing the consensus sequence the reply
// quorum committed at (MultiGet's version vector needs it) and the view it
// executed in (request traces annotate it).
func (s *Session) submitShardSeq(ctx context.Context, shardIdx int, op *kvstore.Op) ([]byte, types.SeqNum, types.View, error) {
	g := s.c.groups[shardIdx]
	g.noteSubmit()
	defer g.noteDone()
	start := time.Now()
	res, seq, view, err := s.clients[shardIdx].SubmitObserved(ctx, op.Encode())
	if err != nil {
		return nil, 0, 0, err
	}
	g.noteCommit(seq, time.Since(start))
	return res, seq, view, nil
}

// Txn executes writes as one atomic cross-shard transaction: intents
// prepare on every participant shard, one attested counter access decides,
// and the decision drives to the participants. On ErrAborted no write is
// visible anywhere; on success all are.
func (s *Session) Txn(ctx context.Context, writes []kvstore.TxnWrite) (*txn.Result, error) {
	return s.TxnWithOptions(ctx, writes, txn.Options{})
}

// TxnWithOptions is Txn with crash injection (recovery tests). A
// transaction voted down because the session's placement was stale — a
// participant answered WrongShard or RangeMigrating for a moved or
// mid-handoff range — is transparently retried (as a fresh transaction id)
// through a refreshed placement epoch; crash-injected executions are never
// retried.
func (s *Session) TxnWithOptions(ctx context.Context, writes []kvstore.TxnWrite, opts txn.Options) (*txn.Result, error) {
	for attempt := 0; ; attempt++ {
		res, err := s.coord.Execute(ctx, writes, opts)
		injected := opts.CrashAt != txn.PhaseNone || opts.DriveOnly != nil
		if injected || !errors.Is(err, txn.ErrAborted) || !votesPlacementStale(res) || attempt >= routeRetryMax {
			return res, err
		}
		pm := s.placement()
		if s.refreshPlacement().Epoch() == pm.Epoch() {
			select {
			case <-ctx.Done():
				return res, err
			case <-time.After(routeRetryDelay):
			}
		}
	}
}

// votesPlacementStale reports whether a vote named a stale-placement
// refusal.
func votesPlacementStale(res *txn.Result) bool {
	if res == nil {
		return false
	}
	for _, v := range res.Votes {
		if v == kvstore.WrongShard || v == kvstore.RangeMigrating {
			return true
		}
	}
	return false
}

// MultiPut atomically upserts a set of keys that may span shards — the
// transactional counterpart of per-key Put. Writes are ordered by key so
// the transaction is deterministic regardless of map iteration.
func (s *Session) MultiPut(ctx context.Context, writes map[uint64][]byte) error {
	ws := make([]kvstore.TxnWrite, 0, len(writes))
	for k, v := range writes {
		ws = append(ws, kvstore.TxnWrite{Key: k, Code: kvstore.OpInsert, Value: v})
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].Key < ws[j].Key })
	_, err := s.Txn(ctx, ws)
	return err
}

// ResolveTxn settles an in-doubt transaction or range handoff (a
// coordinator that vanished mid-flight): the attestation log's published
// decision wins; with none, the arbiter mints an abort. A resolved
// placement commit first re-installs the proposed map (verified against
// the published placement digest) so routing flips with it. The winning
// decision is then driven to every shard — idempotent for shards that
// already decided, and poisoning for shards whose Prepare/Freeze never
// arrived. Call it only after the in-doubt timeout: resolving a live
// coordinator's transaction aborts work it would have committed (safe —
// the first published decision still governs — just wasteful).
func (s *Session) ResolveTxn(ctx context.Context, txid uint64) (txn.Decision, error) {
	d, err := txn.ResolveInDoubt(s.c.txnLog, s.c.arbiter, txid)
	if err != nil {
		return d, err
	}
	if d.Commit && d.IsPlacement() {
		if pm := s.c.proposal(txid); pm != nil && pm.Digest() == d.Placement {
			// An already-superseded epoch fails monotonicity; that only
			// means someone installed it (or a successor) before us.
			_ = s.c.installPlacement(pm)
		}
	}
	errs := make(chan error, len(s.c.groups))
	for idx := range s.c.groups {
		go func(idx int) {
			_, err := s.submitShard(ctx, idx, kvstore.EncodeTxnDecision(d.Commit, d.TxID, 0))
			errs <- err
		}(idx)
	}
	var first error
	for range s.c.groups {
		if err := <-errs; err != nil && first == nil {
			first = fmt.Errorf("shard: driving resolved txn %d: %w", txid, err)
		}
	}
	if first == nil {
		s.c.settleHandoff(txid)
		s.refreshPlacement()
	}
	return d, first
}

// CompactTxnHistory gossips the stability watermark — the oldest
// transaction/handoff id any coordinator may still retry — to every shard
// and prunes the attestation log below it. Shards drop their per-id
// decision history at or below the watermark; late retries naming a pruned
// id are refused deterministically (kvstore.TxnStale) instead of re-acted.
// Returns the watermark driven.
func (s *Session) CompactTxnHistory(ctx context.Context) (uint64, error) {
	wm := s.c.stability.Stable()
	if wm == 0 {
		return 0, nil
	}
	s.c.txnLog.Compact(wm)
	errs := make(chan error, len(s.c.groups))
	for idx := range s.c.groups {
		go func(idx int) {
			res, err := s.submitShard(ctx, idx, kvstore.EncodeTxnCompact(wm))
			if err == nil && string(res) != "OK" {
				err = fmt.Errorf("compaction refused: %s", res)
			}
			errs <- err
		}(idx)
	}
	var first error
	for range s.c.groups {
		if err := <-errs; err != nil && first == nil {
			first = fmt.Errorf("shard: compacting to watermark %d: %w", wm, err)
		}
	}
	return wm, first
}

// StabilityWatermark returns the current stability watermark (the id
// CompactTxnHistory would gossip now).
func (c *Cluster) StabilityWatermark() uint64 { return c.stability.Stable() }

// TxnLog exposes the cluster's decision log (tests, monitoring).
func (c *Cluster) TxnLog() *txn.AttestationLog { return c.txnLog }

// Arbiter exposes the cluster's transaction arbiter (tests account its
// accesses; one per decision).
func (c *Cluster) Arbiter() txn.Arbiter { return c.arbiter }

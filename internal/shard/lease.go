package shard

import (
	"context"
	"sync"
	"time"

	"flexitrust/internal/engine"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/obs"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
)

// leaseReadTimeout bounds one leased read round trip. A primary that does
// not answer within it (down, partitioned, overloaded) costs the caller this
// much before the consensus fallback — deliberately far below any client
// request timeout.
const leaseReadTimeout = 50 * time.Millisecond

// groupLease is the process-wide cached view of one group's read lease,
// shared by every session of a Cluster: the (view, epoch) binding the grant
// committed under, the primary it authorizes, the placement epoch it was
// granted under (a newer placement invalidates it — the server side revoked
// at the freeze, this avoids pointless fast-path attempts), and two
// client-side instants anchored at grant submission: renewAt, half the lease
// duration in, after which the next read renews ahead of expiry, and a
// conservative expiry after which the binding is no longer used.
type groupLease struct {
	mu       sync.Mutex
	granting bool // single-flight: one grant per group in consensus at a time
	active   bool
	view     types.View
	epoch    uint64
	pmEpoch  uint64
	renewAt  time.Time
	expiry   time.Time
	primary  types.ReplicaID
	attested bool // grant attestation verified (memoized per epoch)
}

// live reports whether the cached binding may serve a caller routing under
// placement epoch pmEpoch at instant now. A binding granted under a newer
// placement than the caller's still serves: the primary checks range
// ownership itself, and a session refreshes its placement only when a range
// it touches moved, so requiring equal epochs would let sessions on
// different epochs re-grant over each other indefinitely.
func (l *groupLease) live(pmEpoch uint64, now time.Time) bool {
	return l.active && l.pmEpoch >= pmEpoch && now.Before(l.expiry)
}

// leasedGet attempts the leased fast path for one key: ask the believed
// lease-holding primary directly, no consensus. ok is false whenever the
// caller must fall back to a consensus read — lease missing or expired, group
// not Healthy, the primary refused (fence, unowned range, pending intent), or
// any session-side fence failed. found distinguishes a served NOTFOUND from
// a served value.
func (s *Session) leasedGet(ctx context.Context, key uint64) (val []byte, found, ok bool) {
	val, _, found, ok = s.leasedGetSeq(ctx, key)
	return val, found, ok
}

// leasedGetSeq is leasedGet exposing the watermark the read was served at
// (MultiGet's version vector needs it).
func (s *Session) leasedGetSeq(ctx context.Context, key uint64) (val []byte, seq types.SeqNum, found, ok bool) {
	if !s.c.leaseOn {
		return nil, 0, false, false
	}
	pm := s.placement()
	g := pm.ShardFor(key)
	// Health gate: a mid-election or stalled group never serves leased reads
	// — its lease is either revoked already or about to be.
	if s.c.mon.Check(g).State != GroupHealthy {
		return nil, 0, false, false
	}
	l := s.c.leases[g]
	view, epoch, primary, have := s.ensureLease(ctx, g, l, pm.Epoch())
	if !have {
		s.c.obs.Metrics().Counter(obs.MLeaseFallbacks).Inc()
		return nil, 0, false, false
	}
	// Fence: the group's commit watermark observed before the read is
	// issued. The primary must answer at or above it, so any write this
	// process saw commit is visible — the linearizability anchor.
	fence := s.c.groups[g].Watermark()
	start := time.Now()
	rctx, cancel := context.WithTimeout(ctx, leaseReadTimeout)
	reply, err := s.clients[g].LeaseRead(rctx, primary, key, fence)
	cancel()
	if err != nil {
		s.noteLeaseMiss(l, epoch, true)
		return nil, 0, false, false
	}
	switch reply.Status {
	case types.LeaseReadOK, types.LeaseReadNotFound:
	case types.LeaseReadNoLease:
		// The primary's lease is gone (expired, revoked, restarted); drop
		// the cache so the next read re-grants through consensus.
		s.noteLeaseMiss(l, epoch, true)
		return nil, 0, false, false
	default:
		// Refused: behind the fence, unowned range, or pending intent —
		// exactly the cases consensus must decide. Keep the lease.
		s.noteLeaseMiss(l, epoch, false)
		return nil, 0, false, false
	}
	// Session-side fences: the reply must bind the exact lease this process
	// holds and must not regress below the fence. A revoked-then-reelected
	// primary fails the view check; a primary serving from a stale view of
	// state fails the watermark check.
	if reply.Replica != primary || reply.View != view || reply.Epoch != epoch || reply.Watermark < fence {
		s.noteLeaseMiss(l, epoch, !l.renewedUnder(reply, view, epoch, primary))
		return nil, 0, false, false
	}
	if !s.leaseAttested(l, g, reply, epoch) {
		s.noteLeaseMiss(l, epoch, true)
		return nil, 0, false, false
	}
	s.c.obs.Metrics().Histogram(obs.MLeaseReadLatency).ObserveDuration(time.Since(start))
	return reply.Value, reply.Watermark, reply.Status == types.LeaseReadOK, true
}

// renewedUnder reports whether a mismatching reply is explained by this
// process's own renewal: one is in flight and the reply names a newer epoch
// from the same view and primary — the primary executed the renewal before
// its commit reached the cache. Such a reply is still a miss, but dropping
// the cache would only force a second grant.
func (l *groupLease) renewedUnder(reply *types.LeaseReadReply, view types.View, epoch uint64, primary types.ReplicaID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.granting && reply.Replica == primary && reply.View == view && reply.Epoch > epoch
}

// ensureLease returns the cached lease binding for group g, granting a fresh
// one through consensus when the cache is empty, expired, or from an older
// placement epoch, and renewing it once it is past half its duration. Grants
// are single-flight per group across every session of the cluster: while one
// is in consensus, other readers keep using a still-live binding, and read
// through consensus this once when there is none, rather than stampede the
// group with grant ops (each grant bumps the group's lease epoch, revoking
// the binding every other reader holds).
func (s *Session) ensureLease(ctx context.Context, g int, l *groupLease, pmEpoch uint64) (types.View, uint64, types.ReplicaID, bool) {
	l.mu.Lock()
	now := time.Now()
	live := l.live(pmEpoch, now)
	if live && (l.granting || now.Before(l.renewAt)) {
		v, e, p := l.view, l.epoch, l.primary
		l.mu.Unlock()
		return v, e, p, true
	}
	if l.granting {
		l.mu.Unlock()
		return 0, 0, 0, false
	}
	l.granting = true
	l.mu.Unlock()

	// The grant is an ordinary committed op: every replica's store bumps the
	// lease epoch deterministically, and the primary that executes it arms
	// its clock-bound tracker with one attested counter access.
	submitted := time.Now()
	res, _, view, err := s.submitShardSeq(ctx, g, kvstore.EncodeLeaseGrant(s.c.leaseDur))
	epoch, decoded := kvstore.DecodeLeaseGrant(res)

	l.mu.Lock()
	defer l.mu.Unlock()
	l.granting = false
	if err != nil || !decoded {
		// A failed renewal leaves a still-live binding in use.
		if !l.live(pmEpoch, time.Now()) {
			return 0, 0, 0, false
		}
		return l.view, l.epoch, l.primary, true
	}
	l.active = true
	l.view = view
	l.epoch = epoch
	l.pmEpoch = pmEpoch
	l.primary = types.Primary(view, s.c.groups[g].Runtime().N())
	// Client-side expiry is conservative: anchored at submission, strictly
	// before the primary executes the grant and starts its own clock, with
	// the full safety margin, so the cluster stops using a lease before the
	// primary stops honouring it.
	l.expiry = submitted.Add(s.c.leaseDur - s.c.leaseMargin)
	l.renewAt = submitted.Add(s.c.leaseDur / 2)
	l.attested = false
	return l.view, l.epoch, l.primary, true
}

// leaseAttested verifies, once per lease epoch, that the serving primary
// holds the grant attestation: the trusted counter's proof over the
// (namespace, view, epoch, duration) binding. Memoized in the shared cache —
// the process pays one HMAC check per grant, not per read or per session.
func (s *Session) leaseAttested(l *groupLease, g int, reply *types.LeaseReadReply, epoch uint64) bool {
	l.mu.Lock()
	done := l.attested && l.epoch == epoch
	l.mu.Unlock()
	if done {
		return true
	}
	if reply.Attest == nil {
		return false
	}
	ns := uint16(g + 1)
	want := engine.LeaseGrantDigest(ns, reply.View, reply.Epoch, s.c.leaseDur)
	if reply.Attest.Digest != want {
		return false
	}
	if !s.c.groups[g].Runtime().Auth.Verify(trusted.MapAttestation(reply.Attest, ns)) {
		return false
	}
	l.mu.Lock()
	if l.epoch == epoch {
		l.attested = true
	}
	l.mu.Unlock()
	return true
}

// multiGetLeased is MultiGet's one-shard short-circuit: when every key maps
// to the same healthy group under the current placement (and leases are on),
// the keys are served through the leased fast path with no fan-out machinery
// — no partition map, result channel, or per-key goroutines. It fills
// values/versions/touched in place and returns the keys the fast path could
// not serve (refused, lease missing); handled is false when the short-circuit
// does not apply at all and the caller must run the general path over the
// full key set.
func (s *Session) multiGetLeased(ctx context.Context, span *obs.Span, keys []uint64,
	values map[uint64]kvstore.ReadResult, versions ShardVector, touched map[int]bool) (handled bool, rest []uint64) {
	if !s.c.leaseOn || len(keys) == 0 {
		return false, keys
	}
	pm := s.placement()
	g := pm.ShardFor(keys[0])
	for _, k := range keys[1:] {
		if pm.ShardFor(k) != g {
			return false, keys
		}
	}
	if s.c.mon.Check(g).State != GroupHealthy {
		return false, keys
	}
	// The short-circuit IS the fan-out measurement for this call: one shard.
	s.c.obs.Metrics().Histogram(obs.MMultiGetFanout).Observe(1)
	span.Annotate("single-shard leased read: %d keys on group %d", len(keys), g)
	for _, k := range keys {
		val, seq, found, ok := s.leasedGetSeq(ctx, k)
		if !ok {
			rest = append(rest, k)
			continue
		}
		touched[g] = true
		if seq > versions[g] {
			versions[g] = seq
		}
		values[k] = kvstore.ReadResult{Found: found, Value: val}
	}
	if len(rest) > 0 {
		span.Annotate("%d keys fell back to the fan-out path", len(rest))
	}
	return true, rest
}

// noteLeaseMiss counts a fast-path miss; drop additionally invalidates the
// cached lease (when it still names the epoch the miss was observed under)
// so the next read re-grants instead of re-asking a dead primary.
func (s *Session) noteLeaseMiss(l *groupLease, epoch uint64, drop bool) {
	s.c.obs.Metrics().Counter(obs.MLeaseFallbacks).Inc()
	if !drop {
		return
	}
	l.mu.Lock()
	if l.epoch == epoch {
		l.active = false
	}
	l.mu.Unlock()
}

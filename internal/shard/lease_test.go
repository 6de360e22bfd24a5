package shard

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexitrust/internal/kvstore"
	"flexitrust/internal/obs"
	"flexitrust/internal/types"
)

// leaseConfig is testConfig with the leased linearizable read fast path on
// and a real observer attached so tests can assert which path served.
func leaseConfig(shards int) Config {
	cfg := testConfig(shards)
	cfg.Group.Engine.ReadLease = true
	cfg.Obs = obs.New(obs.Config{SampleRate: -1})
	return cfg
}

// leaseFailoverConfig is leaseConfig tuned like failoverConfig: snappy view
// changes and a health monitor fast enough for tests to observe transitions.
func leaseFailoverConfig(shards int, stallAfter time.Duration) Config {
	cfg := leaseConfig(shards)
	cfg.Group.Engine.ViewChangeTimeout = 150 * time.Millisecond
	cfg.Group.ClientRetry = 200 * time.Millisecond
	cfg.Group.Clients = []types.ClientID{1, 2, 3, 4}
	cfg.Health = HealthConfig{StallAfter: stallAfter, ProbeEvery: time.Millisecond}
	return cfg
}

// TestLeasedGetFastPath: with the lease on, repeated single-key Gets are
// answered by the owning primary without consensus — the lease-read counter
// advances, the leased latency histogram fills, and the granting primary's
// tracker reports an active lease. Values stay correct throughout.
func TestLeasedGetFastPath(t *testing.T) {
	c, err := NewCluster(leaseConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	sess := c.Session(1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	want := make(map[uint64][]byte)
	var keys []uint64
	for s := 0; s < 2; s++ {
		for i, k := range freshKeysOnShard(c.Placement(), s, 3, 50_000) {
			v := []byte(fmt.Sprintf("lease-s%d-%d", s, i))
			if err := sess.Insert(ctx, k, v); err != nil {
				t.Fatalf("insert: %v", err)
			}
			want[k] = v
			keys = append(keys, k)
		}
	}
	for round := 0; round < 5; round++ {
		for _, k := range keys {
			got, err := sess.Get(ctx, k)
			if err != nil {
				t.Fatalf("get key %d: %v", k, err)
			}
			if !bytes.Equal(got, want[k]) {
				t.Fatalf("get key %d = %q, want %q", k, got, want[k])
			}
		}
	}

	m := c.obs.Metrics()
	reads := m.Counter(obs.MLeaseReads).Value()
	if reads == 0 {
		t.Fatal("no reads served on the leased fast path")
	}
	if n := m.Histogram(obs.MLeaseReadLatency).Count(); n == 0 {
		t.Fatal("leased read latency histogram empty")
	}
	t.Logf("leased reads served: %d (latency samples %d)",
		reads, m.Histogram(obs.MLeaseReadLatency).Count())
	for g := 0; g < 2; g++ {
		if epoch, active := c.Group(g).Runtime().Node(0).LeaseState(); !active || epoch == 0 {
			t.Fatalf("group %d primary lease tracker epoch=%d active=%v, want active grant", g, epoch, active)
		}
	}
	// A missing key resolves through the same fast path without error.
	miss := freshKeysOnShard(c.Placement(), 0, 10, 50_000)[9]
	got, err := sess.Get(ctx, miss)
	if err != nil || string(got) != "NOTFOUND" {
		t.Fatalf("get missing key = %q, %v; want NOTFOUND", got, err)
	}
}

// TestMultiGetLeasedSingleShardShortCircuit: a MultiGet whose keys all live
// on one healthy leased shard must skip the cross-shard fan-out machinery —
// the fan-out histogram records exactly one observation of 1 — while a
// cross-shard MultiGet still takes the general path (fan-out 2). Regression
// test for the single-shard case allocating full fan-out state.
func TestMultiGetLeasedSingleShardShortCircuit(t *testing.T) {
	c, err := NewCluster(leaseConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	sess := c.Session(1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	want := make(map[uint64][]byte)
	single := freshKeysOnShard(c.Placement(), 0, 5, 50_000)
	for i, k := range single {
		v := []byte(fmt.Sprintf("one-shard-%d", i))
		if err := sess.Insert(ctx, k, v); err != nil {
			t.Fatalf("insert: %v", err)
		}
		want[k] = v
	}
	other := freshKeysOnShard(c.Placement(), 1, 1, 50_000)[0]
	if err := sess.Insert(ctx, other, []byte("other-shard")); err != nil {
		t.Fatalf("insert: %v", err)
	}
	want[other] = []byte("other-shard")

	readsBefore := c.obs.Metrics().Counter(obs.MLeaseReads).Value()
	vals, vers, err := sess.MultiGet(ctx, single)
	if err != nil {
		t.Fatalf("single-shard multiget: %v", err)
	}
	for _, k := range single {
		if !bytes.Equal(vals[k].Value, want[k]) || !vals[k].Found {
			t.Fatalf("multiget key %d = %+v, want %q", k, vals[k], want[k])
		}
	}
	if vers[0] == 0 {
		t.Fatal("single-shard multiget returned no version for the owning shard")
	}
	fan := c.obs.Metrics().Histogram(obs.MMultiGetFanout)
	if n, max := fan.Count(), fan.Max(); n != 1 || max != 1 {
		t.Fatalf("single-shard multiget fan-out count=%d max=%v, want one observation of 1", n, max)
	}
	if got := c.obs.Metrics().Counter(obs.MLeaseReads).Value(); got < readsBefore+uint64(len(single)) {
		t.Fatalf("leased reads %d -> %d, want +%d (short-circuit must use the fast path)",
			readsBefore, got, len(single))
	}

	// Cross-shard call: the short-circuit must stand aside and the general
	// fan-out path must still produce correct values.
	mixed := append(append([]uint64{}, single...), other)
	vals, _, err = sess.MultiGet(ctx, mixed)
	if err != nil {
		t.Fatalf("cross-shard multiget: %v", err)
	}
	for _, k := range mixed {
		if !bytes.Equal(vals[k].Value, want[k]) {
			t.Fatalf("cross-shard multiget key %d = %q, want %q", k, vals[k].Value, want[k])
		}
	}
	if n, max := fan.Count(), fan.Max(); n != 2 || max != 2 {
		t.Fatalf("after cross-shard multiget fan-out count=%d max=%v, want 2 observations, max 2", n, max)
	}
}

// TestLeaseViewChangeTortureNoStaleReads is the linearizability torture: one
// writer bumps a counter key through consensus while readers hammer the
// leased fast path, and mid-run the granting primary is killed so a view
// change races the lease. Every read must observe at least the last value
// the writer saw commit before the read was issued — a single stale read is
// a linearizability violation. The writer must also stay live: a Put that
// waits out the test's context means the group never recovered from the
// view change, and fails the test instead of passing late. Run under -race.
func TestLeaseViewChangeTortureNoStaleReads(t *testing.T) {
	// stallAfter is generous so the crashed group classifies ViewChanging
	// (traffic proceeds and drives the election), not Stalled (fail-fast
	// would starve the election of the very resends that trigger it).
	c, err := NewCluster(leaseFailoverConfig(1, 2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	key := freshKeysOnShard(c.Placement(), 0, 1, 50_000)[0]
	writer := c.Session(1)
	if err := writer.Insert(ctx, key, []byte("0")); err != nil {
		t.Fatal(err)
	}

	var committed atomic.Uint64 // last counter value known committed
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := writer.Put(ctx, key, []byte(strconv.FormatUint(i, 10))); err != nil {
				if ctx.Err() != nil {
					t.Errorf("writer Put %d waited out the test context: %v", i, err)
					return
				}
				// Degraded-window refusals are fine; the write did not
				// commit, so the fence is not advanced.
				i--
				time.Sleep(5 * time.Millisecond)
				continue
			}
			committed.Store(i)
		}
	}()

	var staleReads, okReads atomic.Uint64
	for r := 0; r < 3; r++ {
		rd := c.Session(types.ClientID(2 + r))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The fence: anything committed before the read was issued
				// must be visible in the read's result.
				min := committed.Load()
				got, err := rd.Get(ctx, key)
				if err != nil {
					time.Sleep(2 * time.Millisecond)
					continue
				}
				v, perr := strconv.ParseUint(string(got), 10, 64)
				if perr != nil {
					t.Errorf("unparseable read %q", got)
					return
				}
				if v < min {
					staleReads.Add(1)
					t.Errorf("STALE READ: got %d, %d was already committed", v, min)
					return
				}
				okReads.Add(1)
			}
		}()
	}

	// Let the lease warm up, then kill the granting primary mid-traffic.
	time.Sleep(500 * time.Millisecond)
	c.Group(0).Runtime().StopReplica(0)
	time.Sleep(2 * time.Second)
	close(stop)
	wg.Wait()

	if s := staleReads.Load(); s != 0 {
		t.Fatalf("%d stale reads", s)
	}
	if okReads.Load() == 0 || committed.Load() == 0 {
		t.Fatalf("torture made no progress: reads=%d writes=%d", okReads.Load(), committed.Load())
	}
	m := c.obs.Metrics()
	if m.Counter(obs.MLeaseReads).Value() == 0 {
		t.Fatal("fast path never used during torture")
	}
	if m.Counter(obs.MLeaseFallbacks).Value() == 0 {
		t.Fatal("primary death produced no fast-path fallbacks")
	}
	st := c.Stats()
	if st.PerShard[0].View == 0 {
		t.Fatal("view never changed — the torture did not race a view change")
	}
	t.Logf("torture: %d writes, %d reads (%d leased, %d fallbacks), final view %d",
		committed.Load(), okReads.Load(), m.Counter(obs.MLeaseReads).Value(),
		m.Counter(obs.MLeaseFallbacks).Value(), st.PerShard[0].View)
}

// TestRebalanceFreezeRevokesLease: committing an OpRangeFreeze (the first
// step of a rebalance) deterministically revokes the source group's lease —
// the revocation counter advances and the old primary's tracker deactivates
// — and reads of the moved keys remain correct afterwards under the new
// placement epoch.
func TestRebalanceFreezeRevokesLease(t *testing.T) {
	c, err := NewCluster(leaseConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	sess := c.Session(1)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Migratable sub-range of group 0 plus keys inside it (rebFixture's
	// computation, on a lease-enabled cluster).
	full := c.Placement().GroupRanges(0)[0]
	r := Range{Start: full.Start, End: full.Start + (full.End-full.Start)/2}
	var keys []uint64
	for k := uint64(10_000); len(keys) < 6; k++ {
		if r.Contains(kvstore.KeyHash(k)) {
			keys = append(keys, k)
		}
	}
	want := make(map[uint64][]byte)
	for i, k := range keys {
		v := []byte(fmt.Sprintf("moved-%d", i))
		if err := sess.Insert(ctx, k, v); err != nil {
			t.Fatalf("insert: %v", err)
		}
		want[k] = v
	}
	// Arm the lease on the source group.
	if _, err := sess.Get(ctx, keys[0]); err != nil {
		t.Fatal(err)
	}
	if _, active := c.Group(0).Runtime().Node(0).LeaseState(); !active {
		t.Fatal("source primary holds no active lease before the rebalance")
	}

	revBefore := c.obs.Metrics().Counter(obs.MLeaseRevocations).Value()
	if _, err := sess.Rebalance(ctx, r, 1); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if got := c.obs.Metrics().Counter(obs.MLeaseRevocations).Value(); got <= revBefore {
		t.Fatalf("lease revocations %d -> %d, want an increase from the range freeze", revBefore, got)
	}
	if epoch, active := c.Group(0).Runtime().Node(0).LeaseState(); active {
		t.Fatalf("source primary still serving lease epoch %d after freeze", epoch)
	}

	// The moved keys now live on group 1; the session's cached binding is
	// from the old placement epoch and must be dropped, re-granted, and the
	// values served correctly.
	for _, k := range keys {
		got, err := sess.Get(ctx, k)
		if err != nil {
			t.Fatalf("post-rebalance get %d: %v", k, err)
		}
		if !bytes.Equal(got, want[k]) {
			t.Fatalf("post-rebalance get %d = %q, want %q", k, got, want[k])
		}
	}
}

// TestLeaseCrashNearExpiryFallsBack: the granting primary dies right at the
// lease-expiry boundary; every read issued across the boundary must either
// serve the committed value through the consensus fallback or fail with a
// routing error — never a wrong value — and service resumes once the view
// change lands.
func TestLeaseCrashNearExpiryFallsBack(t *testing.T) {
	cfg := leaseFailoverConfig(1, 2*time.Second)
	cfg.Group.Engine.LeaseDuration = 60 * time.Millisecond
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	sess := c.Session(1)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	key := freshKeysOnShard(c.Placement(), 0, 1, 50_000)[0]
	if err := sess.Insert(ctx, key, []byte("boundary")); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Get(ctx, key); err != nil { // arm the lease
		t.Fatal(err)
	}

	// Land the crash near the end of the 60ms lease window.
	time.Sleep(50 * time.Millisecond)
	c.Group(0).Runtime().StopReplica(0)

	deadline := time.Now().Add(10 * time.Second)
	served := false
	for time.Now().Before(deadline) {
		got, err := sess.Get(ctx, key)
		if err != nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if string(got) != "boundary" {
			t.Fatalf("read across crash boundary = %q, want %q", got, "boundary")
		}
		served = true
		break
	}
	if !served {
		t.Fatal("no read served after the primary crashed at the lease boundary")
	}
	// Which escape hatch fired is timing-dependent — lease-read timeout, the
	// health gate, or a blocked re-grant riding the election — but the read
	// can only have been served by the post-crash regime.
	if v := c.Stats().PerShard[0].View; v == 0 {
		t.Fatalf("read served but no view change installed (view %d)", v)
	}
}

// TestLeaseSharedAcrossSessions: 16 sessions reading one healthy group for
// less than one lease period commit at most two lease epochs (one grant, at
// most one renewal) and fall back to consensus for at most a tenth of their
// Gets. Regression test for per-session lease caches, under which every
// session's grant bumped the group's lease epoch and so revoked the binding
// every other session held.
func TestLeaseSharedAcrossSessions(t *testing.T) {
	const sessions, getsEach = 16, 40
	cfg := leaseConfig(1)
	cfg.Group.Engine.LeaseDuration = 5 * time.Second
	cfg.Group.Clients = nil
	for id := types.ClientID(1); id <= sessions; id++ {
		cfg.Group.Clients = append(cfg.Group.Clients, id)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	start := time.Now()
	var wg sync.WaitGroup
	for _, id := range cfg.Group.Clients {
		sess := c.Session(id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := uint64(0); k < getsEach; k++ {
				if _, err := sess.Get(ctx, k); err != nil {
					t.Errorf("session %d get %d: %v", id, k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed >= c.leaseDur {
		t.Fatalf("gets took %v, longer than one lease period (%v)", elapsed, c.leaseDur)
	}

	gets := uint64(sessions * getsEach)
	epoch, _ := c.Group(0).Runtime().Node(0).LeaseState()
	fallbacks := c.obs.Metrics().Counter(obs.MLeaseFallbacks).Value()
	t.Logf("%d gets: %d lease epochs, %d fallbacks", gets, epoch, fallbacks)
	if epoch > 2 {
		t.Fatalf("%d lease epochs committed, want at most 2", epoch)
	}
	if fallbacks*10 > gets {
		t.Fatalf("%d of %d gets fell back to consensus, want at most 10%%", fallbacks, gets)
	}
}

// TestLeaseExpiryAnchoredAtSubmission: the cached client-side expiry counts
// from when the grant was submitted, not from its commit, so it never
// outlives the primary's own deadline, which starts when the primary
// executes the grant. A long batch timeout makes the commit visibly late.
func TestLeaseExpiryAnchoredAtSubmission(t *testing.T) {
	const commitDelay = 100 * time.Millisecond
	cfg := leaseConfig(1)
	cfg.Group.Engine.BatchTimeout = commitDelay
	cfg.Group.Engine.LeaseDuration = 5 * time.Second
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	submitted := time.Now()
	if _, err := c.Session(1).Get(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(submitted); took < commitDelay {
		t.Fatalf("granting Get took %v, want at least the %v batch timeout", took, commitDelay)
	}
	l := c.leases[0]
	l.mu.Lock()
	active, expiry := l.active, l.expiry
	l.mu.Unlock()
	if !active {
		t.Fatal("no lease cached after a granting Get")
	}
	// The grant went out right after submitted; its commit came at least
	// commitDelay later. Half of that is ample slack for the routing work
	// before submission.
	if limit := submitted.Add(c.leaseDur - c.leaseMargin + commitDelay/2); expiry.After(limit) {
		t.Fatalf("cached expiry %v past submission + duration - margin (+%v slack)",
			expiry.Sub(submitted), commitDelay/2)
	}
}

// TestLeaseSharedAcrossPlacementEpochs: after a rebalance, a session still
// routing under the old placement (none of its keys moved, so nothing makes
// it refresh) and one routing under the new placement share the group's
// lease. Alternating their reads costs at most two grants, not one per
// alternation.
func TestLeaseSharedAcrossPlacementEpochs(t *testing.T) {
	cfg := leaseConfig(2)
	cfg.Group.Engine.LeaseDuration = 5 * time.Second
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fresh, stale := c.Session(1), c.Session(2)

	full := c.Placement().GroupRanges(0)[0]
	moved := Range{Start: full.Start, End: full.Start + (full.End-full.Start)/2}
	if _, err := fresh.Rebalance(ctx, moved, 1); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	fresh.refreshPlacement()
	if fresh.Epoch() <= stale.Epoch() {
		t.Fatalf("placement epochs fresh=%d stale=%d, want the fresh session ahead", fresh.Epoch(), stale.Epoch())
	}
	var keys []uint64
	for k := uint64(10_000); len(keys) < 4; k++ {
		if c.Placement().ShardFor(k) == 0 {
			keys = append(keys, k)
		}
	}

	before, _ := c.Group(0).Runtime().Node(0).LeaseState()
	for i := 0; i < 20; i++ {
		for _, s := range []*Session{stale, fresh} {
			if _, err := s.Get(ctx, keys[i%len(keys)]); err != nil {
				t.Fatalf("get: %v", err)
			}
		}
	}
	after, _ := c.Group(0).Runtime().Node(0).LeaseState()
	if grants := after - before; grants > 2 {
		t.Fatalf("%d lease grants for 40 alternating reads, want at most 2", grants)
	}
	if stale.Epoch() == fresh.Epoch() {
		t.Fatal("the stale session refreshed its placement; the test no longer mixes epochs")
	}
}

package runtime

import (
	"context"
	"fmt"
	goruntime "runtime"
	"testing"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/protocols/flexibft"
	"flexitrust/internal/protocols/flexizz"
	"flexitrust/internal/protocols/minbft"
	"flexitrust/internal/protocols/pbft"
	"flexitrust/internal/transport"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
)

// startCluster boots an in-process cluster for a protocol.
func startCluster(t *testing.T, n, f, replies int,
	mk func(engine.Config) engine.Protocol) *Cluster {
	t.Helper()
	ecfg := engine.DefaultConfig(n, f)
	ecfg.BatchSize = 4
	ecfg.BatchTimeout = 2 * time.Millisecond
	cl, err := NewCluster(ClusterConfig{
		N: n, F: f,
		Engine:         ecfg,
		NewProtocol:    mk,
		Replies:        replies,
		Clients:        []types.ClientID{1, 2},
		TrustedProfile: trusted.ProfileSGXEnclave,
		Records:        1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return cl
}

// submitAndCheck runs sequential updates+reads through the cluster.
func submitAndCheck(t *testing.T, cl *Cluster, count int) {
	t.Helper()
	client := cl.NewClient(1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < count; i++ {
		val := []byte(fmt.Sprintf("val-%04d", i))
		wr := &kvstore.Op{Code: kvstore.OpUpdate, Key: uint64(i % 10), Value: val}
		out, err := client.Submit(ctx, wr.Encode())
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if string(out) != "OK" {
			t.Fatalf("update %d result = %q", i, out)
		}
	}
	// The last write to key 0 must read back identically.
	rd := &kvstore.Op{Code: kvstore.OpRead, Key: 0}
	out, err := client.Submit(ctx, rd.Encode())
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("val-%04d", ((count-1)/10)*10)
	if string(out) != want {
		t.Fatalf("read back %q, want %q", out, want)
	}
}

func TestFlexiBFTEndToEnd(t *testing.T) {
	cl := startCluster(t, 4, 1, 2, func(cfg engine.Config) engine.Protocol { return flexibft.New(cfg) })
	submitAndCheck(t, cl, 25)
	waitConverged(t, cl)
}

func TestFlexiZZEndToEnd(t *testing.T) {
	cl := startCluster(t, 4, 1, 3, func(cfg engine.Config) engine.Protocol { return flexizz.New(cfg) })
	submitAndCheck(t, cl, 25)
	waitConverged(t, cl)
}

func TestMinBFTEndToEnd(t *testing.T) {
	cl := startCluster(t, 3, 1, 2, func(cfg engine.Config) engine.Protocol { return minbft.New(cfg) })
	submitAndCheck(t, cl, 25)
	waitConverged(t, cl)
}

func TestPBFTEndToEnd(t *testing.T) {
	cl := startCluster(t, 4, 1, 2, func(cfg engine.Config) engine.Protocol { return pbft.New(cfg) })
	submitAndCheck(t, cl, 25)
	waitConverged(t, cl)
}

// waitConverged asserts all replicas reach identical state digests.
func waitConverged(t *testing.T, cl *Cluster) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if digestsEqual(cl) {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i, n := range cl.Nodes {
		d, applied := n.DigestSnapshot()
		t.Logf("replica %d digest %v applied %d", i, d, applied)
	}
	t.Fatal("replicas never converged to identical state")
}

// digestsEqual compares every replica against replica 0 (snapshots are read
// on each node's event goroutine, so this never races with execution).
func digestsEqual(cl *Cluster) bool {
	d0, _ := cl.Nodes[0].DigestSnapshot()
	for _, n := range cl.Nodes[1:] {
		if d, _ := n.DigestSnapshot(); d != d0 {
			return false
		}
	}
	return true
}

// TestFlexiBFTConcurrentClients drives Flexi-BFT on the hub with 64
// closed-loop clients, batches of 16 and emulated trusted-component latency
// for a few seconds — the load under which a backup's attestation check
// for a slot can finish after the others have made that slot's checkpoint
// stable. That backup must still execute the slot rather than queue every
// later batch behind it. After the load stops, every replica must have
// applied the same number of operations, reached the same state, and hold
// no committed batch it cannot execute.
func TestFlexiBFTConcurrentClients(t *testing.T) {
	const clients = 64
	ids := make([]types.ClientID, clients)
	for i := range ids {
		ids[i] = types.ClientID(i + 1)
	}
	ecfg := engine.DefaultConfig(4, 1)
	ecfg.BatchSize = 16
	cl, err := NewCluster(ClusterConfig{
		N: 4, F: 1,
		Engine:           ecfg,
		NewProtocol:      func(cfg engine.Config) engine.Protocol { return flexibft.New(cfg) },
		Replies:          2,
		Clients:          ids,
		TrustedProfile:   trusted.ProfileSGXEnclave,
		EmulateTCLatency: true,
		Records:          1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stopAt := time.Now().Add(3 * time.Second)
	done := make(chan error, clients)
	for _, id := range ids {
		client := cl.NewClient(id)
		go func(id types.ClientID) {
			for i := 0; time.Now().Before(stopAt); i++ {
				op := &kvstore.Op{Code: kvstore.OpUpdate, Key: (uint64(id)*7 + uint64(i)) % 1000, Value: []byte("x")}
				if _, err := client.Submit(ctx, op.Encode()); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(id)
	}
	for range ids {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	waitDrained(t, cl, 10*time.Second)
}

// waitDrained waits until every replica reports the same applied-operation
// count and state digest with an empty executor backlog, and fails the test
// with each replica's position if that does not happen within d.
func waitDrained(t *testing.T, cl *Cluster, d time.Duration) {
	t.Helper()
	type pos struct {
		digest  types.Digest
		applied uint64
		st      engine.Status
	}
	read := func() []pos {
		out := make([]pos, len(cl.Nodes))
		for i, n := range cl.Nodes {
			out[i].digest, out[i].applied = n.DigestSnapshot()
			out[i].st, _ = n.Status()
		}
		return out
	}
	var cur []pos
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		cur = read()
		drained := true
		for _, p := range cur {
			drained = drained && p.applied == cur[0].applied && p.digest == cur[0].digest && p.st.Backlog == 0
		}
		if drained {
			return
		}
	}
	for i, p := range cur {
		t.Logf("replica %d: applied %d, executed through %d, backlog %d", i, p.applied, p.st.LastExecuted, p.st.Backlog)
	}
	t.Fatal("replicas did not drain to the same applied count with an empty executor backlog")
}

func TestTCPTransportEndToEnd(t *testing.T) {
	const n, f = 4, 1
	// Boot four TCP replicas on loopback.
	addrs := make(map[int32]string, n)
	transports := make([]*transport.TCPTransport, n)
	for i := 0; i < n; i++ {
		tp, err := transport.NewTCP(transport.ReplicaAddr(int32(i)), "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		transports[i] = tp
		addrs[int32(i)] = tp.Addr()
		t.Cleanup(func() { tp.Close() })
	}
	// Rebuild with full address books (NewTCP needs peers at dial time; we
	// inject them via a second pass using the exported constructor).
	for i := 0; i < n; i++ {
		transports[i].Close()
	}
	for i := 0; i < n; i++ {
		tp, err := transport.NewTCP(transport.ReplicaAddr(int32(i)), addrs[int32(i)], addrs)
		if err != nil {
			t.Fatal(err)
		}
		transports[i] = tp
		t.Cleanup(func() { tp.Close() })
	}

	ring, err := crypto.NewKeyring(5, n, []types.ClientID{1})
	if err != nil {
		t.Fatal(err)
	}
	auth := trusted.NewHMACAuthority(6, n)
	ecfg := engine.DefaultConfig(n, f)
	ecfg.BatchSize = 2
	ecfg.BatchTimeout = 2 * time.Millisecond
	for i := 0; i < n; i++ {
		node := NewNode(NodeConfig{
			ID:             types.ReplicaID(i),
			Engine:         ecfg,
			NewProtocol:    func(cfg engine.Config) engine.Protocol { return flexibft.New(cfg) },
			Transport:      transports[i],
			Keyring:        ring,
			Authority:      auth,
			TrustedProfile: trusted.ProfileSGXEnclave,
			Records:        1000,
		})
		t.Cleanup(node.Stop)
	}

	ctp, err := transport.NewTCP(transport.ClientAddr(1), "127.0.0.1:0", addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctp.Close() })
	client := NewClient(ClientConfig{
		ID: 1, N: n, F: f, Transport: ctp, Keyring: ring, Replies: f + 1,
		RetryEvery: 300 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		op := &kvstore.Op{Code: kvstore.OpUpdate, Key: uint64(i), Value: []byte("tcp")}
		out, err := client.Submit(ctx, op.Encode())
		if err != nil {
			t.Fatalf("submit %d over TCP: %v", i, err)
		}
		if string(out) != "OK" {
			t.Fatalf("result %q", out)
		}
	}
}

// TestClusterStopReleasesEndpoints: Stop closes every hub endpoint the
// cluster attached — replicas' and clients' — so a stopped cluster keeps no
// inbox goroutine alive, and with it no node or client its handler closes
// over.
func TestClusterStopReleasesEndpoints(t *testing.T) {
	before := goruntime.NumGoroutine()
	ecfg := engine.DefaultConfig(4, 1)
	ecfg.BatchSize = 4
	ecfg.BatchTimeout = 2 * time.Millisecond
	cl, err := NewCluster(ClusterConfig{
		N: 4, F: 1,
		Engine:         ecfg,
		NewProtocol:    func(cfg engine.Config) engine.Protocol { return flexibft.New(cfg) },
		Replies:        2,
		Clients:        []types.ClientID{1, 2},
		TrustedProfile: trusted.ProfileSGXEnclave,
		Records:        1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	submitAndCheck(t, cl, 5)
	cl.NewClient(2)
	cl.Stop()
	cl.Stop() // idempotent

	if n := cl.Hub.Endpoints(); n != 0 {
		t.Fatalf("hub still has %d endpoints after Stop", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d after Stop, %d before the cluster was built", goruntime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLeaseReadWaitsForFence: a lease read whose fence is a sequence the
// primary has not executed yet is answered once it has, at or above the
// fence, rather than refused. A reply quorum of backups can outrun the
// primary, so a client's first read after a commit may carry such a fence.
func TestLeaseReadWaitsForFence(t *testing.T) {
	ecfg := engine.DefaultConfig(4, 1)
	ecfg.BatchSize = 4
	ecfg.BatchTimeout = 2 * time.Millisecond
	ecfg.ReadLease = true
	ecfg.LeaseDuration = 10 * time.Second
	cl, err := NewCluster(ClusterConfig{
		N: 4, F: 1,
		Engine:         ecfg,
		NewProtocol:    func(cfg engine.Config) engine.Protocol { return flexibft.New(cfg) },
		Replies:        2,
		Clients:        []types.ClientID{1},
		TrustedProfile: trusted.ProfileSGXEnclave,
		Records:        1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	client := cl.NewClient(1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	_, granted, err := client.SubmitSeq(ctx, kvstore.EncodeLeaseGrant(ecfg.LeaseDuration).Encode())
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, active := cl.Node(0).LeaseState(); active {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("primary never armed the lease")
		}
	}

	fence := granted + 1
	replies := make(chan *types.LeaseReadReply, 1)
	go func() {
		r, err := client.LeaseRead(ctx, 0, 7, fence)
		if err != nil {
			t.Errorf("lease read: %v", err)
		}
		replies <- r
	}()
	select {
	case r := <-replies:
		t.Fatalf("read with an unexecuted fence answered at once: %+v", r)
	case <-time.After(20 * time.Millisecond):
	}
	wr := &kvstore.Op{Code: kvstore.OpUpdate, Key: 7, Value: []byte("fenced")}
	if _, seq, err := client.SubmitSeq(ctx, wr.Encode()); err != nil || seq < fence {
		t.Fatalf("write committed at %d (%v), want at or above the fence %d", seq, err, fence)
	}
	r := <-replies
	if r == nil {
		return
	}
	if r.Status != types.LeaseReadOK || r.Watermark < fence || string(r.Value) != "fenced" {
		t.Fatalf("parked read answered %+v, want OK at or above fence %d with the fenced write", r, fence)
	}
}

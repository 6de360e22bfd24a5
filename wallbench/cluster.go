package main

import (
	"context"
	"fmt"
	"net"

	"flexitrust/internal/crypto"
	"flexitrust/internal/engine"
	"flexitrust/internal/harness"
	"flexitrust/internal/kvstore"
	"flexitrust/internal/runtime"
	"flexitrust/internal/shard"
	"flexitrust/internal/transport"
	"flexitrust/internal/trusted"
	"flexitrust/internal/types"
	"flexitrust/internal/wire"
)

// f is the fault threshold of every workload.
const f = 1

// workload is one named traffic mix against one deployment.
type workload struct {
	name     string
	clients  int     // closed-loop clients (sessions on the sharded workload)
	readFrac float64 // share of operations that are reads
	build    func(clients int, seed int64, tr *tracer) (deployment, error)
}

// The workloads. Every one runs f=1 in this process and emulates the SGX
// enclave's 25 µs access latency (a modelled cost: there is no enclave).
var workloads = []workload{
	// Four full batches of 16 in flight: throughput is set by CPU and the
	// consensus hot path, not the batch timer. Never touches wire.
	{name: "hub-flexibft-write", clients: 64, build: onHub("Flexi-BFT", 16)},
	// The paper's trust-BFT counterpart: sequential instances, an attested
	// access per message.
	{name: "hub-minbft-write", clients: 64, build: onHub("MinBFT", 16)},
	// Latency-bound over loopback TCP: gob codec and batch timer sit on the
	// critical path. Runnable by name but left out of BENCHMARK.json: on a
	// shared 2-vCPU virtual machine its throughput and latency moved by more
	// than the largest allowed regression bound between consecutive runs.
	{name: "tcp-flexibft-light", clients: 2, build: buildTCP},
	// Reads take the lease path and skip consensus; writes go through it.
	{name: "shard-lease-read", clients: 64, readFrac: 0.95, build: buildShard},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// deployment is a running cluster as the clients see it.
type deployment interface {
	// write commits val to key and returns the commit sequence number when
	// the client library reports one (0 otherwise).
	write(ctx context.Context, client int, key uint64, val []byte) (types.SeqNum, error)
	// get reads key on the workload's read path.
	get(ctx context.Context, client int, key uint64) ([]byte, error)
	// readCommitted reads key through consensus.
	readCommitted(ctx context.Context, key uint64) ([]byte, error)
	// groups lists each consensus group's replicas.
	groups() [][]*runtime.Node
	stop()
}

func clientIDs(n int) []types.ClientID {
	ids := make([]types.ClientID, n)
	for i := range ids {
		ids[i] = types.ClientID(i + 1)
	}
	return ids
}

// engineConfig is the engine configuration of one protocol at f=1.
func engineConfig(spec harness.Spec, batch int) engine.Config {
	cfg := engine.DefaultConfig(spec.N(f), f)
	if batch > 0 {
		cfg.BatchSize = batch
	}
	cfg.Parallel = spec.Parallel
	return cfg
}

// rsmDeployment drives one replicated state machine through runtime.Client.
type rsmDeployment struct {
	nodes      []*runtime.Node
	clients    []*runtime.Client
	transports []transport.Transport
}

func (d *rsmDeployment) write(ctx context.Context, c int, key uint64, val []byte) (types.SeqNum, error) {
	res, seq, err := d.clients[c].SubmitSeq(ctx, (&kvstore.Op{Code: kvstore.OpUpdate, Key: key, Value: val}).Encode())
	if err == nil && string(res) != "OK" {
		err = fmt.Errorf("update of key %d answered %q", key, res)
	}
	return seq, err
}

func (d *rsmDeployment) get(ctx context.Context, c int, key uint64) ([]byte, error) {
	return d.clients[c].Submit(ctx, (&kvstore.Op{Code: kvstore.OpRead, Key: key}).Encode())
}

func (d *rsmDeployment) readCommitted(ctx context.Context, key uint64) ([]byte, error) {
	return d.get(ctx, 0, key)
}

func (d *rsmDeployment) groups() [][]*runtime.Node { return [][]*runtime.Node{d.nodes} }

func (d *rsmDeployment) stop() {
	for _, n := range d.nodes {
		n.Stop()
	}
	for _, tp := range d.transports {
		tp.Close()
	}
}

// startRSM boots spec's replicas and clients on the given endpoints.
func startRSM(spec harness.Spec, batch, clients int, seed int64, tr *tracer,
	replicaTP func(id int) (transport.Transport, error),
	clientTP func(id types.ClientID) (transport.Transport, error)) (*rsmDeployment, error) {
	n := spec.N(f)
	ids := clientIDs(clients)
	ring, err := crypto.NewKeyring(seed, n, ids)
	if err != nil {
		return nil, err
	}
	auth := trusted.NewHMACAuthority(seed+1, n)
	d := &rsmDeployment{}
	for i := 0; i < n; i++ {
		tp, err := replicaTP(i)
		if err != nil {
			d.stop()
			return nil, err
		}
		tp = tr.transport(0, types.ReplicaID(i), tp)
		d.transports = append(d.transports, tp)
		d.nodes = append(d.nodes, runtime.NewNode(runtime.NodeConfig{
			ID:               types.ReplicaID(i),
			Engine:           engineConfig(spec, batch),
			NewProtocol:      tr.protocol(spec.New),
			Transport:        tp,
			Keyring:          ring,
			Authority:        auth,
			TrustedProfile:   trusted.ProfileSGXEnclave,
			KeepLog:          spec.KeepLog,
			EmulateTCLatency: true,
			Records:          records,
		}))
	}
	for _, id := range ids {
		tp, err := clientTP(id)
		if err != nil {
			d.stop()
			return nil, err
		}
		tp = tr.clientTransport(tp)
		d.transports = append(d.transports, tp)
		d.clients = append(d.clients, runtime.NewClient(runtime.ClientConfig{
			ID: id, N: n, F: f, Transport: tp, Keyring: ring, Replies: spec.Policy(n, f).Fast,
		}))
	}
	return d, nil
}

// onHub deploys protocol on the in-process hub.
func onHub(protocol string, batch int) func(int, int64, *tracer) (deployment, error) {
	return func(clients int, seed int64, tr *tracer) (deployment, error) {
		spec, err := harness.ByName(protocol)
		if err != nil {
			return nil, err
		}
		hub := transport.NewHub()
		d, err := startRSM(spec, batch, clients, seed, tr,
			func(id int) (transport.Transport, error) {
				return hub.Attach(transport.ReplicaAddr(int32(id)), 0), nil
			},
			func(id types.ClientID) (transport.Transport, error) {
				return hub.Attach(transport.ClientAddr(uint64(id)), 0), nil
			})
		if err != nil {
			return nil, err
		}
		return d, nil
	}
}

// buildTCP deploys Flexi-BFT with every replica and client on its own
// loopback TCP transport, with the default batch size and timeout.
func buildTCP(clients int, seed int64, tr *tracer) (deployment, error) {
	spec, err := harness.ByName("Flexi-BFT")
	if err != nil {
		return nil, err
	}
	n := spec.N(f)
	book := make(map[int32]string, n)
	for i := 0; i < n; i++ {
		addr, err := freePort()
		if err != nil {
			return nil, err
		}
		book[int32(i)] = addr
	}
	d, err := startRSM(spec, 0, clients, seed, tr,
		func(id int) (transport.Transport, error) {
			return transport.NewTCP(transport.ReplicaAddr(int32(id)), book[int32(id)], book)
		},
		func(id types.ClientID) (transport.Transport, error) {
			tp, err := transport.NewTCP(transport.ClientAddr(uint64(id)), "127.0.0.1:0", book)
			if err != nil {
				return nil, err
			}
			// Replicas reach a client only over a connection the client
			// opened, so introduce the client to every replica up front
			// rather than on its first resend a second later.
			for r := 0; r < n; r++ {
				tp.Send(transport.ReplicaAddr(int32(r)), &wire.Envelope{Msg: &types.Hello{IsClient: true, Client: id}})
			}
			return tp, nil
		})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// freePort reserves a loopback port for a replica's listener.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserving a loopback port: %w", err)
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// shardDeployment drives a sharded deployment through shard.Session.
type shardDeployment struct {
	c        *shard.Cluster
	sessions []*shard.Session
}

func (d *shardDeployment) write(ctx context.Context, c int, key uint64, val []byte) (types.SeqNum, error) {
	return 0, d.sessions[c].Put(ctx, key, val)
}

func (d *shardDeployment) get(ctx context.Context, c int, key uint64) ([]byte, error) {
	return d.sessions[c].Get(ctx, key)
}

func (d *shardDeployment) readCommitted(ctx context.Context, key uint64) ([]byte, error) {
	return d.sessions[0].Do(ctx, &kvstore.Op{Code: kvstore.OpRead, Key: key})
}

func (d *shardDeployment) groups() [][]*runtime.Node {
	var out [][]*runtime.Node
	for s := 0; s < d.c.Shards(); s++ {
		out = append(out, d.c.Group(s).Runtime().Nodes)
	}
	return out
}

func (d *shardDeployment) stop() { d.c.Stop() }

// buildShard deploys two Flexi-BFT groups behind the shard router with
// leased reads on, and one session per client.
func buildShard(clients int, seed int64, tr *tracer) (deployment, error) {
	spec, err := harness.ByName("Flexi-BFT")
	if err != nil {
		return nil, err
	}
	n := spec.N(f)
	ecfg := engineConfig(spec, 0)
	ecfg.ReadLease = true
	c, err := shard.NewCluster(shard.Config{
		Shards: 2,
		Group: runtime.ClusterConfig{
			N: n, F: f,
			Engine:           ecfg,
			NewProtocol:      tr.protocol(spec.New),
			Replies:          spec.Policy(n, f).Fast,
			Clients:          clientIDs(clients),
			TrustedProfile:   trusted.ProfileSGXEnclave,
			KeepLog:          spec.KeepLog,
			EmulateTCLatency: true,
			Records:          records,
			Seed:             seed,
		},
		Obs: tr.observer(),
	})
	if err != nil {
		return nil, err
	}
	d := &shardDeployment{c: c}
	for _, id := range clientIDs(clients) {
		d.sessions = append(d.sessions, c.Session(id))
	}
	return d, nil
}

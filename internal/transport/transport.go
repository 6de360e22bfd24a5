// Package transport provides the real message fabrics the runtime package
// runs protocols over: an in-process hub for single-binary clusters and
// tests, and a TCP transport with identity handshakes for multi-process
// deployments (cmd/replica, cmd/client).
package transport

import (
	"fmt"
	"sync"

	"flexitrust/internal/wire"
)

// Addr identifies an endpoint on a transport: a replica or a client.
type Addr struct {
	Replica  int32
	Client   uint64
	IsClient bool
}

// ReplicaAddr returns a replica endpoint address.
func ReplicaAddr(id int32) Addr { return Addr{Replica: id} }

// ClientAddr returns a client endpoint address.
func ClientAddr(id uint64) Addr { return Addr{Client: id, IsClient: true} }

// String renders the address.
func (a Addr) String() string {
	if a.IsClient {
		return fmt.Sprintf("client-%d", a.Client)
	}
	return fmt.Sprintf("replica-%d", a.Replica)
}

// Handler consumes inbound envelopes.
type Handler func(env *wire.Envelope)

// Transport delivers envelopes between endpoints. Implementations must be
// safe for concurrent use.
type Transport interface {
	// Send delivers env to the endpoint at to. Delivery is best-effort:
	// consensus tolerates loss, and callers never block on a dead peer.
	Send(to Addr, env *wire.Envelope)
	// SetHandler installs the inbound message callback (before any Send).
	SetHandler(h Handler)
	// Close releases resources.
	Close() error
}

// Hub is an in-process switchboard connecting ChanTransports by address.
type Hub struct {
	mu    sync.RWMutex
	ports map[Addr]*ChanTransport
}

// NewHub creates an empty hub.
func NewHub() *Hub {
	return &Hub{ports: make(map[Addr]*ChanTransport)}
}

// Attach creates (and registers) a transport endpoint for addr. The
// endpoint's inbox holds up to buf envelopes; sends to a full inbox drop
// (consensus is loss-tolerant, and dropping beats deadlocking the sender).
func (h *Hub) Attach(addr Addr, buf int) *ChanTransport {
	if buf <= 0 {
		buf = 4096
	}
	t := &ChanTransport{hub: h, addr: addr, inbox: make(chan *wire.Envelope, buf), done: make(chan struct{})}
	h.mu.Lock()
	h.ports[addr] = t
	h.mu.Unlock()
	go t.loop()
	return t
}

// Endpoints returns how many endpoints are attached (closed ones detach).
func (h *Hub) Endpoints() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.ports)
}

// lookup finds an endpoint.
func (h *Hub) lookup(addr Addr) *ChanTransport {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.ports[addr]
}

// detach removes an endpoint.
func (h *Hub) detach(addr Addr) {
	h.mu.Lock()
	delete(h.ports, addr)
	h.mu.Unlock()
}

// ChanTransport is one endpoint on a Hub.
type ChanTransport struct {
	hub   *Hub
	addr  Addr
	inbox chan *wire.Envelope
	done  chan struct{}

	mu      sync.RWMutex
	handler Handler
	closed  bool
}

// Send implements Transport.
func (t *ChanTransport) Send(to Addr, env *wire.Envelope) {
	peer := t.hub.lookup(to)
	if peer == nil {
		return
	}
	select {
	case peer.inbox <- env:
	case <-peer.done:
	default:
		// Inbox full: drop. The protocols' retransmission paths recover.
	}
}

// SetHandler implements Transport.
func (t *ChanTransport) SetHandler(h Handler) {
	t.mu.Lock()
	t.handler = h
	t.mu.Unlock()
}

// loop drains the inbox into the handler.
func (t *ChanTransport) loop() {
	for {
		select {
		case env := <-t.inbox:
			t.mu.RLock()
			h := t.handler
			t.mu.RUnlock()
			if h != nil {
				h(env)
			}
		case <-t.done:
			return
		}
	}
}

// Close implements Transport.
func (t *ChanTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	close(t.done)
	t.hub.detach(t.addr)
	return nil
}

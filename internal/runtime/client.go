package runtime

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/transport"
	"flexitrust/internal/types"
	"flexitrust/internal/wire"
)

// ClientConfig parameterizes the client library.
type ClientConfig struct {
	ID        types.ClientID
	N, F      int
	Transport transport.Transport
	Keyring   *crypto.Keyring
	// Replies is the matching-response quorum the protocol requires (f+1
	// for PBFT/MinBFT/Flexi-BFT, 2f+1 for Flexi-ZZ, n for Zyzzyva/MinZZ
	// fast paths).
	Replies int
	// RetryEvery re-broadcasts an unresolved request to all replicas — the
	// paper's client complaint path.
	RetryEvery time.Duration
}

// Client is the Rsm client library: it signs and submits transactions to
// the primary, collects matching responses, and re-broadcasts on timeout.
type Client struct {
	cfg     ClientConfig
	mu      sync.Mutex
	nextReq uint64
	primary types.ReplicaID
	pending map[uint64]*pendingReq
	// retry fires when the earliest outstanding request is due a
	// re-broadcast; one timer per client, created on first use and re-armed
	// only while requests are outstanding.
	retry      *time.Timer
	retryArmed bool
	// Lease-read state: outstanding single-reply exchanges by ReadNo.
	nextRead     uint64
	leasePending map[uint64]chan *types.LeaseReadReply
}

// outcome is a resolved transaction: its result value, the consensus
// sequence number the quorum committed it at (sharding watermarks need
// it), and the view it executed in (request traces annotate it).
type outcome struct {
	value []byte
	seq   types.SeqNum
	view  types.View
}

// pendingReq tracks one outstanding transaction.
type pendingReq struct {
	req *types.ClientRequest
	// tallies groups the replies received so far by what they claim. The
	// first claim lives in the inline buffer, so requests whose replies all
	// agree never allocate for matching.
	tallies  []tally
	buf      [1]tally
	resendAt time.Time
	done     chan outcome
}

// maxReplicas bounds the replica ids a voter set can hold: the
// quorum-certificate bitmap's limit, far above any configured group.
const maxReplicas = 512

// tally counts the distinct replicas whose reply claims one (view, seq,
// value): what must be identical for responses to match.
type tally struct {
	view   types.View
	seq    types.SeqNum
	value  []byte
	voters [maxReplicas / 64]uint64
	n      int
}

// vote records resp's replica under the tally for the claim its reply
// makes and returns that tally's voter count (unchanged when the replica
// already voted for the same claim).
func (p *pendingReq) vote(resp *types.Response, res *types.Result) int {
	var t *tally
	for i := range p.tallies {
		c := &p.tallies[i]
		if c.view == resp.View && c.seq == resp.Seq && bytes.Equal(c.value, res.Value) {
			t = c
			break
		}
	}
	if t == nil {
		p.tallies = append(p.tallies, tally{view: resp.View, seq: resp.Seq, value: res.Value})
		t = &p.tallies[len(p.tallies)-1]
	}
	word, bit := resp.Replica/64, uint64(1)<<(resp.Replica%64)
	if t.voters[word]&bit == 0 {
		t.voters[word] |= bit
		t.n++
	}
	return t.n
}

// NewClient builds a client on its transport endpoint.
func NewClient(cfg ClientConfig) *Client {
	if cfg.Replies <= 0 {
		cfg.Replies = cfg.F + 1
	}
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = time.Second
	}
	c := &Client{cfg: cfg, pending: make(map[uint64]*pendingReq),
		leasePending: make(map[uint64]chan *types.LeaseReadReply)}
	cfg.Transport.SetHandler(c.onEnvelope)
	return c
}

// LeaseRead asks replica `to` (the believed lease-holding primary) to answer
// a single-key read locally, without consensus. fence is the highest
// committed sequence number the caller has observed for the group; the
// primary must answer at or above it. The caller decides whether the reply
// is usable (status, epoch, watermark checks) — a nil error only means a
// reply arrived.
func (c *Client) LeaseRead(ctx context.Context, to types.ReplicaID, key uint64, fence types.SeqNum) (*types.LeaseReadReply, error) {
	c.mu.Lock()
	c.nextRead++
	readNo := c.nextRead
	ch := make(chan *types.LeaseReadReply, 1)
	c.leasePending[readNo] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.leasePending, readNo)
		c.mu.Unlock()
	}()
	c.cfg.Transport.Send(transport.ReplicaAddr(int32(to)),
		&wire.Envelope{Client: c.cfg.ID, IsClient: true,
			Msg: &types.LeaseRead{Client: c.cfg.ID, ReadNo: readNo, Key: key, Fence: fence}})
	select {
	case r := <-ch:
		return r, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("client %d lease read %d: %w", c.cfg.ID, readNo, ctx.Err())
	}
}

// Primary returns the replica this client currently believes leads the
// group (updated from every accepted reply quorum).
func (c *Client) Primary() types.ReplicaID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.primary
}

// Submit executes op through the replicated service and returns its result.
func (c *Client) Submit(ctx context.Context, op []byte) ([]byte, error) {
	res, _, err := c.SubmitSeq(ctx, op)
	return res, err
}

// SubmitSeq executes op and additionally returns the consensus sequence
// number the reply quorum committed it at. Sharded deployments use it to
// maintain per-shard commit watermarks.
func (c *Client) SubmitSeq(ctx context.Context, op []byte) ([]byte, types.SeqNum, error) {
	res, seq, _, err := c.SubmitObserved(ctx, op)
	return res, seq, err
}

// SubmitObserved executes op and returns, beyond SubmitSeq, the view the
// reply quorum executed it in — the "view at execution" a request trace
// records.
func (c *Client) SubmitObserved(ctx context.Context, op []byte) ([]byte, types.SeqNum, types.View, error) {
	now := time.Now()
	c.mu.Lock()
	c.nextReq++
	req := &types.ClientRequest{
		Client:    c.cfg.ID,
		ReqNo:     c.nextReq,
		Op:        op,
		Timestamp: now.UnixNano(),
	}
	d := crypto.RequestDigest(req)
	if sig, err := c.cfg.Keyring.SignAsClient(c.cfg.ID, d[:]); err == nil {
		req.Sig = sig
	}
	p := &pendingReq{req: req, resendAt: now.Add(c.cfg.RetryEvery), done: make(chan outcome, 1)}
	p.tallies = p.buf[:0]
	c.pending[req.ReqNo] = p
	if !c.retryArmed {
		c.armRetry(c.cfg.RetryEvery)
	}
	primary := c.primary
	c.mu.Unlock()

	env := &wire.Envelope{Client: c.cfg.ID, IsClient: true, Msg: req}
	c.cfg.Transport.Send(transport.ReplicaAddr(int32(primary)), env)

	defer func() {
		c.mu.Lock()
		delete(c.pending, req.ReqNo)
		c.mu.Unlock()
	}()
	select {
	case res := <-p.done:
		return res.value, res.seq, res.view, nil
	case <-ctx.Done():
		return nil, 0, 0, fmt.Errorf("client %d request %d: %w", c.cfg.ID, req.ReqNo, ctx.Err())
	}
}

// armRetry schedules the retry timer d from now. Call with c.mu held.
func (c *Client) armRetry(d time.Duration) {
	if c.retry == nil {
		c.retry = time.AfterFunc(d, c.onRetry)
	} else {
		c.retry.Reset(d)
	}
	c.retryArmed = true
}

// onRetry re-broadcasts every outstanding request that has waited
// RetryEvery since it was sent or last re-broadcast — the client's
// complaint to all replicas, which answer from their caches or forward to
// the primary (and may trigger a view change) — then re-arms for the next
// one due.
func (c *Client) onRetry() {
	now := time.Now()
	var due []*types.ClientRequest
	c.mu.Lock()
	c.retryArmed = false
	var next time.Time
	for _, p := range c.pending {
		if !now.Before(p.resendAt) {
			due = append(due, p.req)
			p.resendAt = now.Add(c.cfg.RetryEvery)
		}
		if next.IsZero() || p.resendAt.Before(next) {
			next = p.resendAt
		}
	}
	if !next.IsZero() {
		c.armRetry(next.Sub(now))
	}
	c.mu.Unlock()
	for _, req := range due {
		resend := &wire.Envelope{Client: c.cfg.ID, IsClient: true, Msg: &types.ClientResend{Request: req}}
		for i := 0; i < c.cfg.N; i++ {
			c.cfg.Transport.Send(transport.ReplicaAddr(int32(i)), resend)
		}
	}
}

// onEnvelope tallies responses.
func (c *Client) onEnvelope(env *wire.Envelope) {
	if lrr, ok := env.Msg.(*types.LeaseReadReply); ok {
		c.mu.Lock()
		ch := c.leasePending[lrr.ReadNo]
		c.mu.Unlock()
		if ch != nil {
			select {
			case ch <- lrr:
			default:
			}
		}
		return
	}
	resp, ok := env.Msg.(*types.Response)
	if !ok || resp.Replica < 0 || int(resp.Replica) >= min(c.cfg.N, maxReplicas) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range resp.Results {
		res := &resp.Results[i]
		if res.Client != c.cfg.ID {
			continue
		}
		p, outstanding := c.pending[res.ReqNo]
		if !outstanding {
			continue
		}
		// Resolve when this reply completes the quorum; replies past it are
		// not copied into an outcome nobody receives.
		if p.vote(resp, res) == c.cfg.Replies {
			if resp.View > 0 {
				c.primary = types.Primary(resp.View, c.cfg.N)
			}
			select {
			case p.done <- outcome{value: append([]byte(nil), res.Value...),
				seq: resp.Seq, view: resp.View}:
			default:
			}
		}
	}
}

package runtime

import (
	"context"
	"sync"
	"testing"
	"time"

	"flexitrust/internal/crypto"
	"flexitrust/internal/transport"
	"flexitrust/internal/types"
	"flexitrust/internal/wire"
)

// echoTransport answers every client request synchronously with one reply
// per replica, from replies prepared once: the client's reply path is all
// that runs per request.
type echoTransport struct {
	// mu orders the retry timer's sends with the test's: both rewrite the
	// shared replies.
	mu      sync.Mutex
	handler transport.Handler
	replies []*wire.Envelope
	// resendsOnly ignores first submissions and answers re-broadcasts
	// only, as a group whose primary dropped the request would.
	resendsOnly bool
}

func newEchoTransport(n int, client types.ClientID, value []byte) *echoTransport {
	e := &echoTransport{}
	for r := 0; r < n; r++ {
		e.replies = append(e.replies, &wire.Envelope{Msg: &types.Response{
			Replica: types.ReplicaID(r), View: 0, Seq: 7,
			Results: []types.Result{{Client: client, Value: value}},
		}})
	}
	return e
}

func (e *echoTransport) SetHandler(h transport.Handler) { e.handler = h }
func (e *echoTransport) Close() error                   { return nil }

func (e *echoTransport) Send(_ transport.Addr, env *wire.Envelope) {
	e.mu.Lock()
	defer e.mu.Unlock()
	req, ok := env.Msg.(*types.ClientRequest)
	if rs, resend := env.Msg.(*types.ClientResend); resend && e.resendsOnly {
		req, ok = rs.Request, true
	} else if e.resendsOnly {
		return
	}
	if !ok {
		return
	}
	for _, rep := range e.replies {
		rep.Msg.(*types.Response).Results[0].ReqNo = req.ReqNo
		e.handler(rep)
	}
}

// newEchoClient builds a client of an n=4, f=1 group whose replicas all
// answer value.
func newEchoClient(tb testing.TB, value []byte) *Client {
	tb.Helper()
	ring, err := crypto.NewKeyring(1, 4, []types.ClientID{1})
	if err != nil {
		tb.Fatal(err)
	}
	return NewClient(ClientConfig{ID: 1, N: 4, F: 1, Replies: 2,
		Transport: newEchoTransport(4, 1, value), Keyring: ring})
}

// TestClientMatchesReplyQuorum: a reply quorum resolves a request with the
// replicas' value and sequence number, and replies that disagree on the
// value are never counted together.
func TestClientMatchesReplyQuorum(t *testing.T) {
	c := newEchoClient(t, []byte("OK"))
	out, seq, err := c.SubmitSeq(context.Background(), []byte("op"))
	if err != nil || string(out) != "OK" || seq != 7 {
		t.Fatalf("submit = %q, seq %d, %v; want OK at 7", out, seq, err)
	}

	// Replicas 0-2 each answer a different value: no two match, so the
	// request stays open until replica 3 agrees with replica 1.
	e := c.cfg.Transport.(*echoTransport)
	all := e.replies
	for r, v := range []string{"A", "B", "C", "B"} {
		all[r].Msg.(*types.Response).Results[0].Value = []byte(v)
	}
	e.replies = all[:3]
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if out, err := c.Submit(ctx, []byte("op")); err == nil {
		t.Fatalf("three disagreeing replies resolved the request with %q", out)
	}
	e.replies = all
	out, err = c.Submit(context.Background(), []byte("op"))
	if err != nil || string(out) != "B" {
		t.Fatalf("submit = %q, %v; want the value replicas 1 and 3 agree on", out, err)
	}
}

// TestClientRebroadcastsUnansweredRequest: a request nobody answers is
// re-broadcast to every replica after RetryEvery, and again after each
// further RetryEvery, until a reply quorum resolves it.
func TestClientRebroadcastsUnansweredRequest(t *testing.T) {
	c := newEchoClient(t, []byte("OK"))
	c.cfg.RetryEvery = 20 * time.Millisecond
	e := c.cfg.Transport.(*echoTransport)
	e.resendsOnly = true
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		start := time.Now()
		if out, err := c.Submit(ctx, []byte("op")); err != nil || string(out) != "OK" {
			t.Fatalf("submit %d = %q, %v", i, out, err)
		}
		if waited := time.Since(start); waited < c.cfg.RetryEvery {
			t.Fatalf("submit %d resolved after %v, before any re-broadcast was due", i, waited)
		}
	}
}

// BenchmarkClientReplyPath is one Submit against a group whose four
// replicas all reply at once: request signing, reply matching and the
// outcome hand-off, without any replica work.
func BenchmarkClientReplyPath(b *testing.B) {
	c := newEchoClient(b, []byte("OK"))
	ctx := context.Background()
	op := []byte("op")
	b.ReportAllocs()
	for b.Loop() {
		if _, err := c.Submit(ctx, op); err != nil {
			b.Fatal(err)
		}
	}
}

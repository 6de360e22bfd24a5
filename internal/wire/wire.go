// Package wire frames and serializes protocol messages for the real
// transports. Messages are encoded with encoding/gob (self-describing,
// stdlib-only; every node in a deployment runs this codebase, which is
// gob's sweet spot) inside length-prefixed frames with a magic header so
// stream desynchronization is detected instead of misparsed.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"flexitrust/internal/types"
)

// Frame limits and header constants.
const (
	magic        = 0x46545255 // "FTRU"
	maxFrameSize = 64 << 20   // 64 MiB: far above any legitimate batch
	headerSize   = 8          // magic u32 + length u32
	readChunk    = 64 << 10   // first body allocation; doubles as bytes arrive
)

// Errors returned by the codec.
var (
	// ErrBadMagic indicates stream desynchronization or a foreign peer.
	ErrBadMagic = errors.New("wire: bad frame magic")
	// ErrFrameTooLarge rejects oversized frames before allocation.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
)

// init registers every concrete message with gob.
func init() {
	gob.Register(&types.ClientRequest{})
	gob.Register(&types.RequestBatch{})
	gob.Register(&types.Preprepare{})
	gob.Register(&types.Prepare{})
	gob.Register(&types.Commit{})
	gob.Register(&types.Response{})
	gob.Register(&types.Checkpoint{})
	gob.Register(&types.ViewChange{})
	gob.Register(&types.NewView{})
	gob.Register(&types.CommitCert{})
	gob.Register(&types.LocalCommit{})
	gob.Register(&types.ClientResend{})
	gob.Register(&types.Forward{})
	gob.Register(&types.Hello{})
	gob.Register(&types.LeaseRead{})
	gob.Register(&types.LeaseReadReply{})
	gob.Register(&types.WindowAttest{})
}

// Envelope is the unit of transmission: an authenticated sender plus the
// message. Receivers trust From only after the transport's handshake has
// pinned the connection to an identity.
type Envelope struct {
	From     types.ReplicaID
	Client   types.ClientID
	IsClient bool
	Msg      types.Message
}

// Encode serializes an envelope into a framed byte slice.
func Encode(env *Envelope) ([]byte, error) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(env); err != nil {
		return nil, fmt.Errorf("wire: encoding %T: %w", env.Msg, err)
	}
	out := make([]byte, headerSize+body.Len())
	binary.BigEndian.PutUint32(out[0:4], magic)
	binary.BigEndian.PutUint32(out[4:8], uint32(body.Len()))
	copy(out[headerSize:], body.Bytes())
	return out, nil
}

// Decode parses one framed envelope from a byte slice (must contain exactly
// one frame).
func Decode(frame []byte) (*Envelope, error) {
	if len(frame) < headerSize {
		return nil, io.ErrUnexpectedEOF
	}
	if binary.BigEndian.Uint32(frame[0:4]) != magic {
		return nil, ErrBadMagic
	}
	n := binary.BigEndian.Uint32(frame[4:8])
	if int(n) != len(frame)-headerSize {
		return nil, fmt.Errorf("wire: frame length %d does not match payload %d", n, len(frame)-headerSize)
	}
	return decodeBody(frame[headerSize:])
}

// decodeBody gob-decodes an envelope payload.
func decodeBody(body []byte) (*Envelope, error) {
	var env Envelope
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&env); err != nil {
		return nil, fmt.Errorf("wire: decoding envelope: %w", err)
	}
	if env.Msg == nil {
		return nil, errors.New("wire: envelope carries no message")
	}
	return &env, nil
}

// WriteFrame writes one framed envelope to w.
func WriteFrame(w io.Writer, env *Envelope) error {
	buf, err := Encode(env)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads one framed envelope from r, enforcing the size limit.
func ReadFrame(r io.Reader) (*Envelope, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if binary.BigEndian.Uint32(hdr[0:4]) != magic {
		return nil, ErrBadMagic
	}
	n := binary.BigEndian.Uint32(hdr[4:8])
	if n > maxFrameSize {
		return nil, ErrFrameTooLarge
	}
	// The body buffer grows as bytes arrive instead of trusting the header
	// up front: a peer that claims a huge frame and sends little costs one
	// chunk, not the claim.
	body := make([]byte, min(n, readChunk))
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	for read := len(body); read < int(n); read = len(body) {
		body = append(body, make([]byte, min(int(n)-read, read))...)
		if _, err := io.ReadFull(r, body[read:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return decodeBody(body)
}

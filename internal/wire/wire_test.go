package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"flexitrust/internal/types"
)

// sampleEnvelopes covers every message kind with representative payloads.
func sampleEnvelopes() []*Envelope {
	att := &types.Attestation{Replica: 2, Counter: 1, Epoch: 3, Value: 99,
		Digest: types.Digest{1, 2}, Proof: []byte("proof")}
	req := &types.ClientRequest{Client: 7, ReqNo: 3, Op: []byte("op"), Sig: []byte("sig")}
	batch := &types.Batch{Requests: []*types.ClientRequest{req}, Digest: types.Digest{9}}
	pp := &types.Preprepare{View: 1, Seq: 5, Batch: batch, Attest: att, Sig: []byte("s")}
	return []*Envelope{
		{From: 1, Msg: req},
		{From: 1, Msg: &types.RequestBatch{Requests: []*types.ClientRequest{req, req}}},
		{From: 2, Msg: pp},
		{From: 3, Msg: &types.Prepare{View: 1, Seq: 5, Digest: types.Digest{9}, Replica: 3, Attest: att}},
		{From: 3, Msg: &types.Commit{View: 1, Seq: 5, Digest: types.Digest{9}, Replica: 3}},
		{From: 0, Msg: &types.Response{Replica: 0, View: 1, Seq: 5, Speculative: true,
			Results: []types.Result{{Client: 7, ReqNo: 3, Value: []byte("OK")}}}},
		{From: 0, Msg: &types.Checkpoint{Replica: 0, Seq: 100, StateDigest: types.Digest{4}, Attest: att}},
		{From: 1, Msg: &types.ViewChange{Replica: 1, NewView: 2, StableSeq: 100,
			Prepared:    []*types.PreparedProof{{Preprepare: pp, QC: []byte{0x01, 0xAB, 0xCD}}},
			Preprepares: []*types.Preprepare{pp}}},
		{From: 2, Msg: &types.NewView{View: 2, Proposals: []*types.Preprepare{pp}, CounterInit: att}},
		{Client: 7, IsClient: true, Msg: &types.CommitCert{Client: 7, View: 1, Seq: 5, Digest: types.Digest{9}}},
		{From: 1, Msg: &types.LocalCommit{Replica: 1, View: 1, Seq: 5, Client: 7}},
		{Client: 7, IsClient: true, Msg: &types.ClientResend{Request: req}},
		{From: 2, Msg: &types.Forward{Replica: 2, Request: req}},
		{From: 2, Msg: &types.Hello{Replica: 2}},
		{Client: 7, IsClient: true, Msg: &types.LeaseRead{Client: 7, ReadNo: 4, Key: 11, Fence: 5}},
		{From: 0, Msg: &types.LeaseReadReply{Replica: 0, ReadNo: 4, Key: 11, View: 1, Epoch: 2,
			Watermark: 5, Status: types.LeaseReadOK, Value: []byte("v"), Attest: att}},
		{From: 0, Msg: &types.WindowAttest{Replica: 0, Cert: []byte("cert")}},
	}
}

func TestEncodeDecodeEveryMessageType(t *testing.T) {
	for _, env := range sampleEnvelopes() {
		frame, err := Encode(env)
		if err != nil {
			t.Fatalf("encode %T: %v", env.Msg, err)
		}
		got, err := Decode(frame)
		if err != nil {
			t.Fatalf("decode %T: %v", env.Msg, err)
		}
		if !reflect.DeepEqual(env, got) {
			t.Fatalf("roundtrip mismatch for %T:\n  in  %#v\n  out %#v", env.Msg, env, got)
		}
	}
}

func TestStreamFraming(t *testing.T) {
	var buf bytes.Buffer
	envs := sampleEnvelopes()
	for _, env := range envs {
		if err := WriteFrame(&buf, env); err != nil {
			t.Fatal(err)
		}
	}
	for i := range envs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Msg.Type() != envs[i].Msg.Type() {
			t.Fatalf("frame %d type = %v, want %v", i, got.Msg.Type(), envs[i].Msg.Type())
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("end of stream err = %v, want EOF", err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	frame, _ := Encode(sampleEnvelopes()[0])
	frame[0] ^= 0xFF
	if _, err := Decode(frame); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if _, err := ReadFrame(bytes.NewReader(frame)); err != ErrBadMagic {
		t.Fatalf("ReadFrame err = %v, want ErrBadMagic", err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	var hdr [8]byte
	copy(hdr[:4], []byte{0x46, 0x54, 0x52, 0x55})
	hdr[4], hdr[5], hdr[6], hdr[7] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestTruncatedFrameRejected(t *testing.T) {
	frame, _ := Encode(sampleEnvelopes()[0])
	for _, cut := range []int{1, 4, 8, len(frame) - 1} {
		if _, err := ReadFrame(bytes.NewReader(frame[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// A frame larger than the first read chunk streams through intact, and a
// header claiming a huge frame that never arrives is rejected after
// allocating what was sent, not what was claimed.
func TestLargeAndOverclaimedFrames(t *testing.T) {
	big := &Envelope{From: 1, Msg: &types.ClientRequest{Client: 7, ReqNo: 1,
		Op: bytes.Repeat([]byte("x"), 5*readChunk/2)}}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, big); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, big) {
		t.Fatal("large frame changed in transit")
	}

	var hdr [headerSize + 16]byte
	binary.BigEndian.PutUint32(hdr[0:4], magic)
	binary.BigEndian.PutUint32(hdr[4:8], maxFrameSize)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); err != io.ErrUnexpectedEOF {
		t.Fatalf("overclaimed frame err = %v, want io.ErrUnexpectedEOF", err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*readChunk {
		t.Fatalf("overclaimed frame allocated %d bytes", alloc)
	}
}

// Property: arbitrary client requests survive the codec bit-for-bit.
// (gob canonicalizes empty slices to nil, which is semantically identical
// for byte payloads, so the property normalizes them.)
func TestRequestRoundTripProperty(t *testing.T) {
	norm := func(b []byte) []byte {
		if len(b) == 0 {
			return nil
		}
		return b
	}
	prop := func(client uint64, reqNo uint64, op, sig []byte) bool {
		in := &Envelope{From: 1, Msg: &types.ClientRequest{
			Client: types.ClientID(client), ReqNo: reqNo, Op: norm(op), Sig: norm(sig)}}
		frame, err := Encode(in)
		if err != nil {
			return false
		}
		out, err := Decode(frame)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecode feeds arbitrary bytes to both frame decoders. Neither may
// panic; they must agree on every input; and whatever they accept must
// re-encode into a frame that decodes to the same envelope.
func FuzzDecode(f *testing.F) {
	for _, env := range sampleEnvelopes() {
		frame, err := Encode(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := Decode(data)
		r := bytes.NewReader(data)
		streamed, streamErr := ReadFrame(r)
		if err != nil {
			// Decode wants exactly one frame; ReadFrame stops after the
			// first, so it may accept only when bytes trail that frame.
			if streamErr == nil && r.Len() == 0 {
				t.Fatalf("ReadFrame accepted a whole frame Decode rejected: %v", err)
			}
			return
		}
		if streamErr != nil {
			t.Fatalf("Decode accepted a frame ReadFrame rejected: %v", streamErr)
		}
		if !reflect.DeepEqual(env, streamed) {
			t.Fatalf("decoders disagree:\n  Decode    %#v\n  ReadFrame %#v", env, streamed)
		}
		frame, err := Encode(env)
		if err != nil {
			t.Fatalf("re-encoding a decoded %T: %v", env.Msg, err)
		}
		again, err := Decode(frame)
		if err != nil {
			t.Fatalf("decoding a re-encoded %T: %v", env.Msg, err)
		}
		if !reflect.DeepEqual(env, again) {
			t.Fatalf("re-encode round trip changed %T:\n  in  %#v\n  out %#v", env.Msg, env, again)
		}
	})
}

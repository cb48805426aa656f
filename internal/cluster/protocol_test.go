package cluster

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

// sampleFrames covers every message type with every field population the
// protocol uses.
func sampleFrames() []Frame {
	return []Frame{
		{Type: MsgPing, Node: 0, Gen: 0},
		{Type: MsgPing, Node: 2, Gen: 7, Identity: "v3|meta:120:a1b2c3d4"},
		{Type: MsgAck, Node: 1, Gen: 7, Identity: "v3|meta:120:a1b2c3d4", OK: true}, // how a ping is answered
		{Type: MsgPrepare, Node: 0, Gen: 8, Identity: "v3|meta:9:00000001"},
		{Type: MsgCommit, Node: 0, Gen: 8},
		{Type: MsgAbort, Node: 0, Gen: 8},
		{Type: MsgAck, Node: 1, Gen: 8, OK: true, Identity: "v3|meta:9:00000001"},
		{Type: MsgAck, Node: 1, Gen: 8, OK: false, Err: "gen 8 is not newer than committed gen 9"},
	}
}

// v1ReplicateFrame is a frame as protocol version 1 laid it out: type 3
// (replicate), ending in a length-prefixed artifact payload.
func v1ReplicateFrame(t testing.TB) []byte {
	body, err := AppendFrame(Frame{Type: MsgPing, Node: 0, Gen: 8, Identity: "v3|meta:9:00000001"})
	if err != nil {
		t.Fatal(err)
	}
	body[4], body[5] = 1, 3
	body = binary.LittleEndian.AppendUint64(body, 4)
	return append(body, 0xde, 0xad, 0xbe, 0xef)
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		body, err := AppendFrame(f)
		if err != nil {
			t.Fatalf("encoding %v: %v", f.Type, err)
		}
		got, err := DecodeFrame(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("decoding %v: %v", f.Type, err)
		}
		if got.Type != f.Type || got.Node != f.Node || got.Gen != f.Gen ||
			got.Identity != f.Identity || got.OK != f.OK || got.Err != f.Err {
			t.Errorf("%v round-trip mismatch:\n got %+v\nwant %+v", f.Type, got, f)
		}
	}
}

// TestDecodeFrameTruncation cuts a valid frame at every byte boundary:
// each prefix must produce a descriptive error — never a panic, never a
// silently-zero frame.
func TestDecodeFrameTruncation(t *testing.T) {
	full, err := AppendFrame(Frame{Type: MsgAck, Node: 1, Gen: 3, Identity: "v3|m:1:ff", Err: "no staged model for gen 3"})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeFrame(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at byte %d/%d decoded without error", cut, len(full))
		}
	}
	if _, err := DecodeFrame(bytes.NewReader(full)); err != nil {
		t.Fatalf("full frame failed to decode: %v", err)
	}
}

func TestDecodeFrameHostileInputs(t *testing.T) {
	valid, err := AppendFrame(Frame{Type: MsgPing, Node: 0, Gen: 1})
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(mut func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return mut(b)
	}

	cases := []struct {
		name    string
		body    []byte
		wantSub string
	}{
		{
			name:    "empty input",
			body:    nil,
			wantSub: "frame magic",
		},
		{
			name:    "wrong magic",
			body:    mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
			wantSub: "bad frame magic",
		},
		{
			name:    "future protocol version",
			body:    mutate(func(b []byte) []byte { b[4] = ProtoVersion + 1; return b }),
			wantSub: "not supported",
		},
		{
			name:    "retired protocol version 1",
			body:    v1ReplicateFrame(t),
			wantSub: "protocol version 1 not supported",
		},
		{
			name:    "unknown message type",
			body:    mutate(func(b []byte) []byte { b[5] = 200; return b }),
			wantSub: "unknown message type",
		},
		{
			name:    "retired message type 2",
			body:    mutate(func(b []byte) []byte { b[5] = 2; return b }),
			wantSub: "unknown message type 2",
		},
		{
			name:    "retired message type 3",
			body:    mutate(func(b []byte) []byte { b[5] = 3; return b }),
			wantSub: "unknown message type 3",
		},
		{
			name: "negative sender node",
			body: mutate(func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[6:], ^uint64(0)) // node = -1
				return b
			}),
			wantSub: "negative sender",
		},
		{
			name: "hostile identity length",
			body: mutate(func(b []byte) []byte {
				// The identity length prefix sits after magic+ver+type+node+gen.
				binary.LittleEndian.PutUint64(b[22:], 1<<40)
				return b
			}),
			wantSub: "sanity limit",
		},
		{
			name: "corrupt bool",
			body: mutate(func(b []byte) []byte {
				b[30] = 7 // the OK byte (after empty identity)
				return b
			}),
			wantSub: "corrupt bool",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeFrame(bytes.NewReader(tc.body))
			if err == nil {
				t.Fatal("hostile input decoded without error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestFrameCap pins both ends of the frame cap: the decoder stops at
// MaxFrameBytes whatever a length prefix claims, and the encoder refuses a
// frame the decoder would.
func TestFrameCap(t *testing.T) {
	if _, err := AppendFrame(Frame{Type: MsgAck, Err: strings.Repeat("x", MaxFrameBytes)}); err == nil {
		t.Error("a frame over the cap encoded without error")
	}
	body, err := AppendFrame(Frame{Type: MsgPing, Node: 0, Gen: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The errmsg length prefix is the final 8 bytes of a frame with no
	// reason; claim 64 MiB and supply it.
	binary.LittleEndian.PutUint64(body[len(body)-8:], 64<<20)
	padded := io.MultiReader(bytes.NewReader(body), io.LimitReader(zeroes{}, 64<<20))
	if _, err := DecodeFrame(padded); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("DecodeFrame of a 64 MiB frame = %v, want it cut short at the cap", err)
	}
}

// zeroes is an endless stream of zero bytes that allocates nothing.
type zeroes struct{}

func (zeroes) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// FuzzDecodeFrame throws arbitrary bytes at the control-protocol decoder:
// it must never panic, and on success a re-encode of the decoded frame
// must decode to the same frame (the codec is self-consistent).
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range sampleFrames() {
		body, err := AppendFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add(v1ReplicateFrame(f))
	f.Add([]byte("WCCC"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		body, err := AppendFrame(fr)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		again, err := DecodeFrame(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if again.Type != fr.Type || again.Node != fr.Node || again.Gen != fr.Gen ||
			again.Identity != fr.Identity || again.OK != fr.OK || again.Err != fr.Err {
			t.Fatalf("re-decode mismatch:\n got %+v\nwant %+v", again, fr)
		}
	})
}

package cluster

import (
	"bytes"
	"strings"
	"testing"
)

// sampleFrames covers every field population the protocol uses: a ping at
// boot, an advertisement and its reply, a prepare or commit, an abort.
func sampleFrames() []Frame {
	return []Frame{
		{Node: 0, Gen: 0},
		{Node: 2, Gen: 7, Identity: "v3|meta:120:a1b2c3d4"},
		{Node: 1, Gen: 8, Identity: "v3|meta:9:00000001|model:4096:deadbeef"},
		{Node: 63, Gen: 1<<64 - 1},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		body, err := AppendFrame(f)
		if err != nil {
			t.Fatalf("encoding %+v: %v", f, err)
		}
		got, err := DecodeFrame(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("decoding %s: %v", body, err)
		}
		if got != f {
			t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", got, f)
		}
	}
}

// TestDecodeFrameTruncation cuts a valid frame at every byte boundary:
// each prefix must produce a descriptive error — never a panic, never a
// silently-zero frame.
func TestDecodeFrameTruncation(t *testing.T) {
	full, err := AppendFrame(Frame{Node: 1, Gen: 3, Identity: "v3|m:1:ff"})
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
	long := strings.Repeat("x", MaxFrameBytes)
	for _, tc := range []struct {
		name, body, wantSub string
	}{
		{"empty input", "", "unexpected end of JSON input"},
		{"malformed JSON", `{"node":1,"gen":}`, "invalid character"},
		{"not an object", `[1,2]`, "cannot unmarshal array"},
		{"negative sender node", `{"node":-1,"gen":1}`, "negative sender"},
		{"negative gen", `{"node":1,"gen":-1}`, "cannot unmarshal number -1"},
		{"trailing bytes", `{"node":1,"gen":1}{"node":2}`, "after top-level value"},
		{"hostile identity length", `{"node":1,"gen":1,"identity":"` + long + `"}`, "exceeds the 4096-byte cap"},
		{"identity over its own cap", `{"identity":"` + long[:maxIdentityBytes+1] + `"}`, "identity exceeds"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeFrame(strings.NewReader(tc.body))
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("DecodeFrame(%.40q) = %v, want an error mentioning %q", tc.body, err, tc.wantSub)
			}
		})
	}
}

// TestFrameCap pins both ends of the frame cap: the decoder reads no more
// than MaxFrameBytes+1 bytes of a 1 MiB body, and the encoder refuses a
// frame the decoder would.
func TestFrameCap(t *testing.T) {
	if _, err := AppendFrame(Frame{Identity: strings.Repeat("x", MaxFrameBytes)}); err == nil {
		t.Error("a frame over the cap encoded without error")
	}
	body := bytes.NewReader(append([]byte(`{"identity":"`), make([]byte, 1<<20)...))
	if _, err := DecodeFrame(body); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("DecodeFrame of a 1 MiB body = %v, want it cut short at the cap", err)
	}
	if read := body.Size() - int64(body.Len()); read > MaxFrameBytes+1 {
		t.Errorf("DecodeFrame read %d bytes of an oversized body, want at most %d", read, MaxFrameBytes+1)
	}
}

// FuzzDecodeFrame throws arbitrary bytes at the control-protocol decoder:
// it must never panic, and whatever decodes must re-encode and decode to
// the same frame (the codec is self-consistent).
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range sampleFrames() {
		body, err := AppendFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"node":1,"gen":2,"identity":"< \xff>","extra":[1,{}]}`))
	f.Add([]byte(`{"node":1}{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"node":9223372036854775808,"gen":18446744073709551616}`))
	f.Add([]byte(`{"identity":"\u2028\ud800` + strings.Repeat("&", maxIdentityBytes-2) + `"}`))
	f.Add([]byte("WCCC\x02\x01\x00\x00\x00\x00\x00\x00\x00\x00")) // a retired binary ping
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
		if again != fr {
			t.Fatalf("re-decode mismatch:\n got %+v\nwant %+v", again, fr)
		}
	})
}

package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Control protocol: the JSON bodies cluster nodes exchange for membership
// (ping) and the two-phase rolling swap (prepare, commit, abort). The route
// names the message; a request and a 200 reply are each one Frame, and a
// refusal is a 409 carrying a refusal (see control). Frames carry no
// payload: they name an artifact, whose bytes move only by
// GET /cluster/v1/artifact (see fetch).

// MaxFrameBytes caps one encoded control frame, request or reply. The
// decoder reads one byte past it at most, so a control route costs a
// hostile sender's body a few KiB of this process at most.
const MaxFrameBytes = 4 << 10

// maxIdentityBytes caps a frame's identity. A real one is about a hundred
// bytes; the bound keeps every decodable frame re-encodable under
// MaxFrameBytes, whatever escaping the encoder adds.
const maxIdentityBytes = MaxFrameBytes / 8

// Frame is one control message: the sender's node ID, the generation the
// message speaks about and an artifact's CRC identity. A ping advertises
// the sender's committed generation and identity, and its reply the
// responder's; prepare and commit name the generation and identity to
// stage and install; abort names the generation to drop.
type Frame struct {
	Node     int    `json:"node"`
	Gen      uint64 `json:"gen"`
	Identity string `json:"identity"`
}

// refusal is the body of a control route's 409: why apply refused a frame.
type refusal struct {
	Error string `json:"error"`
}

// AppendFrame encodes the frame — the body the HTTP client posts. A frame
// DecodeFrame would refuse is refused here.
func AppendFrame(f Frame) ([]byte, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	return json.Marshal(f)
}

// DecodeFrame reads one control frame from hostile input: at most
// MaxFrameBytes are read, and a longer body, malformed JSON, anything after
// the object, a negative node or an oversized identity is an error.
func DecodeFrame(r io.Reader) (Frame, error) {
	body, err := io.ReadAll(io.LimitReader(r, MaxFrameBytes+1))
	if err != nil {
		return Frame{}, fmt.Errorf("cluster: reading frame: %w", err)
	}
	if len(body) > MaxFrameBytes {
		return Frame{}, fmt.Errorf("cluster: control body exceeds the %d-byte cap", MaxFrameBytes)
	}
	var f Frame
	if err := json.Unmarshal(body, &f); err != nil {
		return Frame{}, fmt.Errorf("cluster: decoding frame: %w", err)
	}
	if err := f.check(); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// check refuses a negative node and an oversized identity.
func (f Frame) check() error {
	if f.Node < 0 {
		return errors.New("cluster: negative sender node ID")
	}
	if len(f.Identity) > maxIdentityBytes {
		return fmt.Errorf("cluster: %d-byte identity exceeds the %d-byte cap", len(f.Identity), maxIdentityBytes)
	}
	return nil
}

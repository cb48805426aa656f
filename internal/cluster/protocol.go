package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/wire"
)

// Control protocol: the binary frames cluster nodes exchange for
// membership (ping/ack) and the two-phase rolling swap
// (prepare/commit/abort + ack). Frames ride POST bodies between nodes and
// carry no payload: they name an artifact (generation + identity), and the
// bytes move only by GET /cluster/v1/artifact (see fetch). The layout
// reuses internal/wire's error-sticky primitives, so the decoder inherits
// the same hostile-input posture as the artifact and ingest codecs: every
// length prefix is bounds-checked before allocation, a truncated or
// corrupted frame produces a descriptive error, never a panic.
//
// Frame layout (little-endian), at most MaxFrameBytes in all:
//
//	magic    4 bytes  "WCCC"
//	version  u8       protocol version (2)
//	type     u8       message type (see MsgType)
//	node     i64      sender node ID
//	gen      u64      generation the message speaks about
//	identity string   artifact CRC identity (u64-len prefixed)
//	ok       bool     ack verdict (1 byte, 0 or 1)
//	errmsg   string   ack failure reason ("" on success)
//
// Every frame carries every field — the cost is a few bytes of zero-value
// prefixes on small messages, and in exchange the decoder is a single
// total function over all message types, which keeps the fuzz surface
// one function wide.

// protoMagic distinguishes control frames from everything else a port
// scanner might throw at the endpoint.
var protoMagic = [4]byte{'W', 'C', 'C', 'C'}

// ProtoVersion is the control protocol version this build speaks. Version
// 1 frames ended in an artifact payload (the retired replicate push); a
// version-1 frame is refused like any other unknown version.
const ProtoVersion = 2

// MaxFrameBytes caps one encoded control frame, request or ack. The
// decoder never reads past it whatever a length prefix claims, so a control
// route costs a hostile sender's frame a few KiB of this process at most.
const MaxFrameBytes = 4 << 10

// MsgType discriminates control frames.
type MsgType uint8

const (
	// MsgPing is the heartbeat: sender's ID, generation and artifact
	// identity, so liveness probes double as anti-entropy advertisements.
	MsgPing MsgType = 1
	// Values 2 and 3 are unassigned — pings are answered with MsgAck, and
	// artifact bytes are pulled, never pushed — and the decoder rejects
	// them.
	// MsgPrepare asks a replica to stage the named artifact for the given
	// generation: pull it from the sender unless a copy with that identity
	// is already staged, decode it, run the serving-compatibility gates,
	// hold the model ready — and serve NOTHING new yet.
	MsgPrepare MsgType = 4
	// MsgCommit asks a replica to install its staged generation. Sent only
	// after every node acked prepare, so no node ever serves a generation
	// some peer cannot.
	MsgCommit MsgType = 5
	// MsgAbort drops a staged generation without installing it.
	MsgAbort MsgType = 6
	// MsgAck is the uniform response frame: OK or an error string, plus the
	// responder's identity/generation where relevant.
	MsgAck MsgType = 7
)

// String names the message type for diagnostics.
func (t MsgType) String() string {
	switch t {
	case MsgPing:
		return "ping"
	case MsgPrepare:
		return "prepare"
	case MsgCommit:
		return "commit"
	case MsgAbort:
		return "abort"
	case MsgAck:
		return "ack"
	default:
		return fmt.Sprintf("msgtype(%d)", uint8(t))
	}
}

// Frame is one decoded control message. Unused fields are zero values.
type Frame struct {
	Type     MsgType
	Node     int    // sender node ID
	Gen      uint64 // generation the message speaks about
	Identity string // artifact CRC identity
	OK       bool   // ack verdict
	Err      string // ack failure reason
}

// AppendFrame encodes the frame into a fresh byte slice — the form the
// HTTP client posts. A frame DecodeFrame would refuse for its size is
// refused here.
func AppendFrame(f Frame) ([]byte, error) {
	var buf bytes.Buffer
	ww := wire.NewWriter(&buf)
	for _, b := range protoMagic {
		ww.U8(b)
	}
	ww.U8(ProtoVersion)
	ww.U8(uint8(f.Type))
	ww.Int(f.Node)
	ww.U64(f.Gen)
	ww.String(f.Identity)
	ww.Bool(f.OK)
	ww.String(f.Err)
	if err := ww.Err(); err != nil {
		return nil, err
	}
	if buf.Len() > MaxFrameBytes {
		return nil, fmt.Errorf("cluster: %d-byte %s frame exceeds the %d-byte cap", buf.Len(), f.Type, MaxFrameBytes)
	}
	return buf.Bytes(), nil
}

// DecodeFrame reads one control frame from hostile input. Errors are
// descriptive and sticky (first failure wins); the function never panics
// on truncation, wrong magic, or hostile length prefixes.
func DecodeFrame(r io.Reader) (Frame, error) {
	rr := wire.NewReader(io.LimitReader(r, MaxFrameBytes))
	var magic [4]byte
	for i := range magic {
		magic[i] = rr.U8()
	}
	if err := rr.Err(); err != nil {
		return Frame{}, fmt.Errorf("cluster: reading frame magic: %w", err)
	}
	if magic != protoMagic {
		return Frame{}, fmt.Errorf("cluster: bad frame magic %q", magic[:])
	}
	version := rr.U8()
	if err := rr.Err(); err == nil && version != ProtoVersion {
		return Frame{}, fmt.Errorf("cluster: protocol version %d not supported (this build speaks %d)", version, ProtoVersion)
	}
	f := Frame{
		Type:     MsgType(rr.U8()),
		Node:     rr.Int(),
		Gen:      rr.U64(),
		Identity: rr.String(),
		OK:       rr.Bool(),
		Err:      rr.String(),
	}
	if err := rr.Err(); err != nil {
		return Frame{}, fmt.Errorf("cluster: decoding %s frame: %w", f.Type, err)
	}
	switch f.Type {
	case MsgPing, MsgPrepare, MsgCommit, MsgAbort, MsgAck:
	default:
		return Frame{}, fmt.Errorf("cluster: unknown message type %d", uint8(f.Type))
	}
	if f.Node < 0 {
		return Frame{}, errors.New("cluster: negative sender node ID")
	}
	return f, nil
}

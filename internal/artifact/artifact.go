// Package artifact implements the versioned model-artifact store: a
// self-describing binary container (.wcc) bundling a fitted estimator with
// the preprocessing statistics it was trained under and provenance metadata,
// so a datacenter can train offline once and serve the model continuously —
// wcctrain -o writes artifacts, wccserve -model serves them, and
// fleet.Monitor.SwapClassifierDrift rolls a refreshed artifact into a live
// fleet with zero downtime.
//
// # File layout (format version 1)
//
//	magic        8 bytes  89 57 43 43 0D 0A 1A 0A  ("\x89WCC\r\n\x1a\n")
//	version      u32 LE   container format version
//	sections     u32 LE   section count N
//	table        N × { name (u64-len string), length u64, crc32 u32 }
//	header crc   u32 LE   crc32 over version + sections + table bytes
//	payloads     section payloads concatenated in table order
//
// The PNG-style magic detects text-mode mangling as well as foreign files.
// Every section payload is covered by an IEEE CRC32 recorded in the table,
// and the header/table bytes themselves by a trailing header CRC, so
// truncation and bit corruption are detected before a model is trusted.
// Sections with unknown names are skipped, giving minor-version forward
// compatibility; a file whose container version is newer than this build is
// rejected outright with a descriptive error.
//
// # Sections
//
//	meta    JSON-encoded Metadata (always present, always first)
//	scaler  preprocess.StandardScaler wire encoding (optional)
//	drift   drift.Calibration wire encoding (optional): the open-set
//	        rejection threshold and input-drift reference histograms
//	model   estimator wire encoding, dispatched on Metadata.Kind
//
// A pca section, written by earlier builds for models no core could serve,
// is retired: readers skip it like any unknown section.
//
// The drift section was introduced after the first v1 artifacts shipped;
// because unknown sections are skipped, older readers still load newer
// artifacts, and artifacts without the section load here with Drift nil —
// serving simply runs with open-set detection disabled.
package artifact

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/drift"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/preprocess"
	"repro/internal/wire"
	"repro/internal/xgb"
)

// Magic identifies a .wcc artifact file.
var Magic = [8]byte{0x89, 'W', 'C', 'C', '\r', '\n', 0x1a, '\n'}

// FormatVersion is the container version this build writes and the newest it
// reads.
const FormatVersion = 1

// Model kinds recorded in Metadata.Kind: the estimators a serving core can
// load. A file naming any other kind is refused as unknown before its model
// payload is looked at.
const (
	KindForest = "forest"
	KindXGB    = "xgb"
)

// Section names.
const (
	sectionMeta   = "meta"
	sectionScaler = "scaler"
	sectionDrift  = "drift"
	sectionModel  = "model"
)

// maxSections bounds the section table so corrupted counts fail fast.
const maxSections = 64

// maxSectionLen bounds one section payload (1 GiB).
const maxSectionLen = 1 << 30

// Metadata is the artifact's provenance record: what the model is, what it
// was trained on, and the accuracy observed on the held-out test split.
type Metadata struct {
	// Kind identifies the estimator ("forest" or "xgb") and selects the
	// model-section codec.
	Kind string `json:"kind"`
	// ClassNames maps class indices to the paper's workload names.
	ClassNames []string `json:"class_names,omitempty"`
	// Features names the feature pipeline. Every producer writes "cov", the
	// streaming covariance embedding; it stays a field because a file from
	// outside can say anything, and server.Servable refuses the rest.
	Features string `json:"features,omitempty"`
	// Window and Sensors give the telemetry window shape the model consumes
	// (540×7 for the challenge datasets).
	Window  int `json:"window,omitempty"`
	Sensors int `json:"sensors,omitempty"`
	// Dataset, Scale and Seed record the training provenance: the Table IV
	// dataset spec name, the simulation scale, and the generation seed.
	Dataset string  `json:"dataset,omitempty"`
	Scale   float64 `json:"scale,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	// MaxTrain and MaxTest are the trial caps the training run applied after
	// the split (0 = uncapped): with Dataset, Scale and Seed they let a
	// retrain (internal/adapt) regenerate exactly the base set the model
	// saw. Additive JSON; artifacts written before the fields read as 0.
	MaxTrain int `json:"max_train,omitempty"`
	MaxTest  int `json:"max_test,omitempty"`
	// Accuracy is the held-out test accuracy measured at training time.
	Accuracy float64 `json:"accuracy,omitempty"`
	// NovelClasses counts the classes appended by the continual-learning
	// flywheel (internal/adapt); the last NovelClasses entries of
	// ClassNames are adapt-discovered families, zero for offline-trained
	// artifacts. The field is additive JSON, so older readers ignore it.
	NovelClasses int `json:"novel_classes,omitempty"`
	// AdaptedFrom records what a flywheel candidate grew from — the
	// producing tool plus the base artifact's class count — tying a
	// promoted model to its lineage.
	AdaptedFrom string `json:"adapted_from,omitempty"`
	// CreatedUnix is the artifact creation time (seconds since epoch).
	CreatedUnix int64 `json:"created_unix,omitempty"`
	// Tool names the producer (e.g. "wcctrain").
	Tool string `json:"tool,omitempty"`
}

// Model is the estimator an artifact carries, and all a serving core, a
// calibration pass or the encoder asks of it: class probabilities (what a
// stream.Classifier serves from), labels, and its own wire encoding.
// *forest.Classifier and *xgb.Classifier implement it; being one of them is
// what makes a model's Kind known.
type Model interface {
	PredictProba(x *mat.Matrix) (*mat.Matrix, error)
	Predict(x *mat.Matrix) ([]int, error)
	Encode(w io.Writer) error
}

// Artifact is a decoded model bundle.
type Artifact struct {
	Meta   Metadata
	Scaler *preprocess.StandardScaler // nil when the model has no scaler
	// Drift carries the open-set rejection threshold and input-drift
	// reference fitted at training time; nil for artifacts written before
	// drift calibration existed (serving then runs with drift disabled).
	Drift *drift.Calibration
	Model Model
}

// ModelKind infers the Metadata.Kind string for a model value.
func ModelKind(model Model) (string, error) {
	switch model.(type) {
	case *forest.Classifier:
		return KindForest, nil
	case *xgb.Classifier:
		return KindXGB, nil
	default:
		return "", fmt.Errorf("artifact: unsupported model type %T", model)
	}
}

// decodeModelPayload is the decode surface a peer or a dropped file reaches:
// kind comes from outside, and only these two codecs run on its say-so.
func decodeModelPayload(kind string, payload []byte) (Model, error) {
	r := bytes.NewReader(payload)
	switch kind {
	case KindForest:
		return forest.Decode(r)
	case KindXGB:
		return xgb.Decode(r)
	default:
		return nil, fmt.Errorf("artifact: unknown model kind %q", kind)
	}
}

type section struct {
	name    string
	payload []byte
}

// Encode writes the artifact to w in container format version 1.
func Encode(w io.Writer, a *Artifact) error {
	if a == nil || a.Model == nil {
		return errors.New("artifact: nil model")
	}
	kind, err := ModelKind(a.Model)
	if err != nil {
		return err
	}
	if a.Meta.Kind == "" {
		a.Meta.Kind = kind
	} else if a.Meta.Kind != kind {
		return fmt.Errorf("artifact: metadata kind %q does not match model type (%s)", a.Meta.Kind, kind)
	}

	metaJSON, err := json.Marshal(a.Meta)
	if err != nil {
		return err
	}
	sections := []section{{sectionMeta, metaJSON}}
	if a.Scaler != nil {
		var buf bytes.Buffer
		if err := a.Scaler.Encode(&buf); err != nil {
			return err
		}
		sections = append(sections, section{sectionScaler, buf.Bytes()})
	}
	if a.Drift != nil {
		var buf bytes.Buffer
		if err := a.Drift.Encode(&buf); err != nil {
			return err
		}
		sections = append(sections, section{sectionDrift, buf.Bytes()})
	}
	var model bytes.Buffer
	if err := a.Model.Encode(&model); err != nil {
		return err
	}
	sections = append(sections, section{sectionModel, model.Bytes()})

	var head bytes.Buffer
	hw := wire.NewWriter(&head)
	hw.U32(FormatVersion)
	hw.U32(uint32(len(sections)))
	for _, s := range sections {
		hw.String(s.name)
		hw.U64(uint64(len(s.payload)))
		hw.U32(crc32.ChecksumIEEE(s.payload))
	}
	if err := hw.Err(); err != nil {
		return err
	}
	if _, err := w.Write(Magic[:]); err != nil {
		return err
	}
	if _, err := w.Write(head.Bytes()); err != nil {
		return err
	}
	ww := wire.NewWriter(w)
	ww.U32(crc32.ChecksumIEEE(head.Bytes()))
	if err := ww.Err(); err != nil {
		return err
	}
	for _, s := range sections {
		if _, err := w.Write(s.payload); err != nil {
			return err
		}
	}
	return nil
}

// SectionInfo describes one section table entry.
type SectionInfo struct {
	Name   string
	Length uint64
	CRC    uint32
}

// header is the decoded container prelude: version and section table.
type header struct {
	version  uint32
	sections []SectionInfo
}

func readHeader(r io.Reader) (*header, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("artifact: not a .wcc artifact: %w", err)
	}
	if magic != Magic {
		return nil, errors.New("artifact: bad magic: not a .wcc artifact")
	}
	// Everything between the magic and the header CRC is checksummed, so a
	// corrupted section table (including names — a mangled name would
	// otherwise look like a skippable unknown section) is always detected.
	headCRC := crc32.NewIEEE()
	rr := wire.NewReader(io.TeeReader(r, headCRC))
	h := &header{version: rr.U32()}
	if err := rr.Err(); err != nil {
		return nil, err
	}
	if h.version > FormatVersion {
		return nil, fmt.Errorf("artifact: format version %d not supported (this build reads <= %d)", h.version, FormatVersion)
	}
	if h.version == 0 {
		return nil, errors.New("artifact: corrupt header: format version 0")
	}
	n := rr.U32()
	if err := rr.Err(); err != nil {
		return nil, err
	}
	if n == 0 || n > maxSections {
		return nil, fmt.Errorf("artifact: corrupt header: %d sections", n)
	}
	h.sections = make([]SectionInfo, n)
	for i := range h.sections {
		h.sections[i].Name = rr.String()
		h.sections[i].Length = rr.U64()
		h.sections[i].CRC = rr.U32()
		if err := rr.Err(); err != nil {
			return nil, err
		}
		if h.sections[i].Length > maxSectionLen {
			return nil, fmt.Errorf("artifact: section %q length %d exceeds sanity limit", h.sections[i].Name, h.sections[i].Length)
		}
	}
	want := headCRC.Sum32()
	tail := wire.NewReader(r) // past the tee: the CRC is not part of itself
	got := tail.U32()
	if err := tail.Err(); err != nil {
		return nil, err
	}
	if got != want {
		return nil, fmt.Errorf("artifact: header checksum mismatch (file %08x, computed %08x)", got, want)
	}
	return h, nil
}

// readSection consumes and verifies the next payload from r. The table's
// length is a claim (the header CRC covers it, but whoever wrote the file
// wrote that too), so the buffer grows with the bytes that arrive.
func readSection(r io.Reader, info SectionInfo) ([]byte, error) {
	payload, err := wire.ReadFull(r, int(info.Length))
	if err != nil {
		return nil, fmt.Errorf("artifact: section %q truncated: %w", info.Name, err)
	}
	if crc := crc32.ChecksumIEEE(payload); crc != info.CRC {
		return nil, fmt.Errorf("artifact: section %q checksum mismatch (file %08x, computed %08x)", info.Name, info.CRC, crc)
	}
	return payload, nil
}

// Decode reads an artifact from r, verifying magic, version, and every
// section checksum. Corrupted or truncated input returns a descriptive
// error; Decode never panics on hostile bytes.
func Decode(r io.Reader) (*Artifact, error) {
	h, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	a := &Artifact{}
	sawMeta, sawModel := false, false
	var modelPayload []byte
	for _, info := range h.sections {
		payload, err := readSection(r, info)
		if err != nil {
			return nil, err
		}
		switch info.Name {
		case sectionMeta:
			if err := json.Unmarshal(payload, &a.Meta); err != nil {
				return nil, fmt.Errorf("artifact: corrupt metadata: %w", err)
			}
			sawMeta = true
		case sectionScaler:
			if a.Scaler, err = preprocess.DecodeScaler(bytes.NewReader(payload)); err != nil {
				return nil, err
			}
		case sectionDrift:
			if a.Drift, err = drift.Decode(bytes.NewReader(payload)); err != nil {
				return nil, err
			}
		case sectionModel:
			// Deferred until the metadata (and with it the kind) is known;
			// the meta section is written first but a reordered file is
			// still legal.
			modelPayload = payload
			sawModel = true
		default:
			// Unknown sections are forward-compatible padding: skip.
		}
	}
	if !sawMeta {
		return nil, errors.New("artifact: missing meta section")
	}
	if !sawModel {
		return nil, errors.New("artifact: missing model section")
	}
	if a.Model, err = decodeModelPayload(a.Meta.Kind, modelPayload); err != nil {
		return nil, err
	}
	return a, nil
}

// Save atomically writes the artifact to path: the bytes land in a
// temporary file in the same directory first and are renamed into place, so
// a serving process polling the path never observes a half-written model.
func Save(path string, a *Artifact) error {
	var buf bytes.Buffer
	if err := Encode(&buf, a); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// CreateTemp opens 0600; artifacts are ordinary shareable files.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Load reads an artifact file.
func Load(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// Info summarises an artifact without decoding the model payload.
type Info struct {
	FormatVersion uint32
	Meta          Metadata
	Sections      []SectionInfo
	// Drift is the decoded drift calibration; populated by ReadInfoDetail
	// only (ReadInfo leaves it nil even when the section exists, so the
	// hot polling path never decodes it).
	Drift *drift.Calibration
}

// ReadInfo reads the container header and metadata section only — the
// cheap inspection path the artifact watcher polls (section identity
// comes from the header's CRC table; no payload past the metadata is
// read or verified). Use ReadInfoDetail to also decode the drift section.
func ReadInfo(path string) (*Info, error) {
	return readInfo(path, false)
}

// ReadInfoDetail is ReadInfo plus the drift calibration section, when
// present — the wccinfo inspection path. The model payload is still
// skipped.
func ReadInfoDetail(path string) (*Info, error) {
	return readInfo(path, true)
}

func readInfo(path string, wantDrift bool) (*Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h, err := readHeader(f)
	if err != nil {
		return nil, err
	}
	info := &Info{FormatVersion: h.version, Sections: h.sections}
	sawMeta := false
	needDrift := wantDrift && sectionPresent(h.sections, sectionDrift)
	for _, s := range h.sections {
		// Payloads are sequential, so intervening sections must still be
		// consumed; reading stops once every wanted section has been seen,
		// which skips the (large) trailing model payload.
		if sawMeta && (!needDrift || info.Drift != nil) {
			break
		}
		payload, err := readSection(f, s)
		if err != nil {
			return nil, err
		}
		switch s.Name {
		case sectionMeta:
			if err := json.Unmarshal(payload, &info.Meta); err != nil {
				return nil, fmt.Errorf("artifact: corrupt metadata: %w", err)
			}
			sawMeta = true
		case sectionDrift:
			if needDrift {
				if info.Drift, err = drift.Decode(bytes.NewReader(payload)); err != nil {
					return nil, err
				}
			}
		}
	}
	if !sawMeta {
		return nil, errors.New("artifact: missing meta section")
	}
	return info, nil
}

// Identity fingerprints the artifact by its container contents — format
// version plus every section's name, length and CRC32 — so two files with
// identical stat signatures but different payloads still compare as
// different, and two replicas holding the same payload compare as equal.
// The serving watcher polls it to detect replacements, and the cluster
// control plane (internal/cluster) uses it as the convergence check: a
// rolling swap names an artifact by it, and every node must compute the
// same identity from its own copy before it prepares.
func (info *Info) Identity() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v%d", info.FormatVersion)
	for _, sec := range info.Sections {
		fmt.Fprintf(&b, "|%s:%d:%08x", sec.Name, sec.Length, sec.CRC)
	}
	return b.String()
}

// Identity reads the artifact at path and returns its content identity —
// ReadInfo's cheap meta-only path, so polling it stays inexpensive.
func Identity(path string) (string, error) {
	info, err := ReadInfo(path)
	if err != nil {
		return "", err
	}
	return info.Identity(), nil
}

// sectionPresent reports whether the table lists a section by name.
func sectionPresent(sections []SectionInfo, name string) bool {
	for _, s := range sections {
		if s.Name == name {
			return true
		}
	}
	return false
}

// Sniff reports whether the file at path starts with the artifact magic.
func Sniff(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return false
	}
	return magic == Magic
}

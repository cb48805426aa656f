package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/artifact"
	"repro/internal/drift"
	"repro/internal/mat"
	"repro/internal/wire"
	"repro/internal/xgb"
)

const goldenArtifact = "../artifact/testdata/golden_v1.wcc"

// fuzzSection is one named payload of a .wcc container.
type fuzzSection struct {
	name    string
	payload []byte
}

// FuzzArtifactSection fuzzes the section decoders behind the container's
// checksums. Random bytes never get past a .wcc's per-section CRC, so the
// target replaces one section payload of the golden fixture and re-wraps
// the container with correct CRCs. There are two bases: the fixture's
// forest with a drift section added, and the same with a booster in the
// model section. artifact.Decode must return an error or an artifact; an
// artifact must be refused by the serving gate, or served: a core built from
// it ingests one window and scores it. Nothing may panic.
func FuzzArtifactSection(f *testing.F) {
	bases := fuzzArtifactBases(f)
	for b, base := range bases {
		for s, sec := range base {
			f.Add(uint8(b), uint8(s), sec.payload)
			f.Add(uint8(b), uint8(s), sec.payload[:len(sec.payload)/2])
		}
	}
	f.Fuzz(func(t *testing.T, b, s uint8, payload []byte) {
		secs := slices.Clone(bases[int(b)%len(bases)])
		secs[int(s)%len(secs)].payload = payload
		a, err := artifact.Decode(bytes.NewReader(wrapSections(t, secs)))
		if err != nil {
			return
		}
		m, err := NewCore(a, 1)
		if err != nil {
			return
		}
		sample := make([]float64, a.Meta.Sensors)
		for i := 0; i < a.Meta.Window; i++ {
			for k := range sample {
				sample[k] = float64((i*len(sample)+k)%11) / 3
			}
			if err := m.Ingest(0, sample); err != nil {
				t.Fatalf("served core refused sample %d: %v", i, err)
			}
		}
		if _, err := m.Tick(); err != nil {
			t.Fatalf("served artifact failed its first tick: %v", err)
		}
		if _, ok := m.Prediction(0); !ok {
			t.Fatal("served artifact scored no prediction for a full window")
		}
	})
}

// fuzzArtifactBases splits the golden fixture into its sections, adds a
// drift section fitted for its 4x3 window, and returns that forest artifact
// and a copy whose meta and model sections carry a booster instead.
func fuzzArtifactBases(f *testing.F) [][]fuzzSection {
	raw, err := os.ReadFile(goldenArtifact)
	if err != nil {
		f.Fatal(err)
	}
	info, err := artifact.ReadInfo(goldenArtifact)
	if err != nil {
		f.Fatal(err)
	}
	total := 0
	for _, s := range info.Sections {
		total += int(s.Length)
	}
	rest := raw[len(raw)-total:]
	var forestBase []fuzzSection
	for _, s := range info.Sections {
		forestBase = append(forestBase, fuzzSection{s.Name, rest[:s.Length]})
		rest = rest[s.Length:]
	}

	rng := rand.New(rand.NewSource(9))
	randn := func(rows, cols int) *mat.Matrix {
		m := mat.New(rows, cols)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m
	}
	cal, err := drift.Fit(drift.FitInput{TrainFeatures: randn(40, 6), HeldOutFeatures: randn(20, 6),
		RawSamples: randn(80, 3)}, drift.Options{})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cal.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	forestBase = append(forestBase, fuzzSection{"drift", buf.Bytes()})

	x, y := randn(60, 6), make([]int, 60)
	for i := range y {
		y[i] = rng.Intn(3)
	}
	booster := xgb.New(xgb.Config{NumRounds: 3})
	if err := booster.Fit(x, y, 3, nil, nil); err != nil {
		f.Fatal(err)
	}
	var model bytes.Buffer
	if err := booster.Encode(&model); err != nil {
		f.Fatal(err)
	}
	meta := info.Meta
	meta.Kind = artifact.KindXGB
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		f.Fatal(err)
	}
	xgbBase := slices.Clone(forestBase)
	for i, s := range xgbBase {
		switch s.name {
		case "meta":
			xgbBase[i].payload = metaJSON
		case "model":
			xgbBase[i].payload = model.Bytes()
		}
	}
	return [][]fuzzSection{forestBase, xgbBase}
}

// wrapSections writes secs as a format-v1 container, every CRC correct.
func wrapSections(t *testing.T, secs []fuzzSection) []byte {
	var head bytes.Buffer
	hw := wire.NewWriter(&head)
	hw.U32(artifact.FormatVersion)
	hw.U32(uint32(len(secs)))
	for _, s := range secs {
		hw.String(s.name)
		hw.U64(uint64(len(s.payload)))
		hw.U32(crc32.ChecksumIEEE(s.payload))
	}
	if err := hw.Err(); err != nil {
		t.Fatal(err)
	}
	out := append(artifact.Magic[:], head.Bytes()...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(head.Bytes()))
	for _, s := range secs {
		out = append(out, s.payload...)
	}
	return out
}

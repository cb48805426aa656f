package drift

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/wire"
)

// codecVersion is the drift calibration wire version. Bump it together
// with the artifact format version for incompatible layout changes.
const codecVersion = 1

// Sanity bounds for hostile input: a corrupted header cannot make Decode
// allocate unbounded memory.
const (
	maxSensors = 4096
	maxBins    = 4096
)

// Encode writes the calibration in the drift wire format.
func (c *Calibration) Encode(w io.Writer) error {
	if c == nil || c.Ref == nil {
		return errors.New("drift: cannot encode a nil calibration")
	}
	ww := wire.NewWriter(w)
	ww.U32(codecVersion)
	// The first legacy slot once held the energy temperature; it keeps the
	// value every calibration was fitted with, so a section's bytes do not
	// depend on the build that wrote it.
	ww.F64(0.5)
	ww.F64(c.Threshold.Quantile)
	// The next legacy slots once held the MinConf, MinMargin and MaxEnergy cut
	// points. 0, 0 and +Inf never reject, so a reader that still applies them
	// gives the verdicts the feature gate alone gives.
	ww.F64(0)
	ww.F64(0)
	ww.F64(math.Inf(1))
	ww.F64(c.Threshold.MaxFeatDist)
	ww.Bool(c.Feat != nil)
	if c.Feat != nil {
		ww.F64s(c.Feat.Means)
		ww.F64s(c.Feat.Stds)
		ww.Matrix(c.Feat.Train)
	}
	ww.U32(uint32(c.Ref.Sensors()))
	ww.U32(uint32(c.Ref.Bins))
	for _, edges := range c.Ref.Edges {
		ww.F64s(edges)
	}
	for _, props := range c.Ref.Props {
		ww.F64s(props)
	}
	return ww.Err()
}

// Decode reads a calibration written by Encode. Corrupted or truncated
// input returns an error; Decode never panics on hostile bytes.
func Decode(r io.Reader) (*Calibration, error) {
	rr := wire.NewReader(r)
	if v := rr.U32(); rr.Err() == nil && v != codecVersion {
		return nil, fmt.Errorf("drift: unsupported calibration version %d (this build reads %d)", v, codecVersion)
	}
	c := &Calibration{}
	rr.F64() // legacy temperature slot: no score reads it
	c.Threshold.Quantile = rr.F64()
	rr.F64()
	rr.F64()
	if energy := rr.F64(); !math.IsInf(energy, 1) {
		// Written when the legacy slots still held cut points: Quantile is
		// theirs, not the feature gate's, so the section records none.
		c.Threshold.Quantile = 0
	}
	c.Threshold.MaxFeatDist = rr.F64()
	if rr.Bool() {
		c.Feat = &FeatureStats{Means: rr.F64s(), Stds: rr.F64s(), Train: rr.Matrix()}
	}
	if err := rr.Err(); err != nil {
		return nil, err
	}
	// A NaN, infinite or negative cut point would accept every row.
	if d := c.Threshold.MaxFeatDist; math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
		return nil, fmt.Errorf("drift: corrupt calibration: feature distance cut point %v", d)
	}
	if c.Feat != nil {
		if len(c.Feat.Means) == 0 || len(c.Feat.Means) != len(c.Feat.Stds) {
			return nil, fmt.Errorf("drift: corrupt calibration: %d feature means, %d stds",
				len(c.Feat.Means), len(c.Feat.Stds))
		}
		if c.Feat.Train == nil || c.Feat.Train.Rows == 0 || c.Feat.Train.Cols != len(c.Feat.Means) {
			return nil, errors.New("drift: corrupt calibration: feature reference rows missing or misshapen")
		}
		if err := c.Feat.check(); err != nil {
			return nil, fmt.Errorf("drift: corrupt calibration: %w", err)
		}
	}
	sensors := rr.U32()
	bins := rr.U32()
	if err := rr.Err(); err != nil {
		return nil, err
	}
	if sensors == 0 || sensors > maxSensors {
		return nil, fmt.Errorf("drift: corrupt calibration: %d sensors", sensors)
	}
	if bins < 2 || bins > maxBins {
		return nil, fmt.Errorf("drift: corrupt calibration: %d bins", bins)
	}
	ref := &Reference{
		Bins:  int(bins),
		Edges: make([][]float64, sensors),
		Props: make([][]float64, sensors),
	}
	for i := range ref.Edges {
		ref.Edges[i] = rr.F64s()
	}
	for i := range ref.Props {
		ref.Props[i] = rr.F64s()
	}
	if err := rr.Err(); err != nil {
		return nil, err
	}
	for i := range ref.Edges {
		if len(ref.Edges[i]) != int(bins)-1 || len(ref.Props[i]) != int(bins) {
			return nil, fmt.Errorf("drift: corrupt calibration: sensor %d histogram shape", i)
		}
	}
	if err := ref.check(); err != nil {
		return nil, fmt.Errorf("drift: corrupt calibration: %w", err)
	}
	c.Ref = ref
	if c.Feat != nil {
		c.Feat.index() // built here, not by the first tick that scores against it
	}
	return c, nil
}

package preprocess

import (
	"fmt"
	"io"

	"repro/internal/wire"
)

// codecVersion is the scaler payload format; bump on incompatible layout
// changes so old readers fail descriptively instead of misloading.
const codecVersion = 1

// Encode serialises the fitted scaler's column statistics. The scaler must
// travel with any model it standardised features for, so live windows are
// preprocessed exactly as the training set was. It refuses what Check
// refuses, so it never writes a scaler DecodeScaler would not read back.
func (s *StandardScaler) Encode(w io.Writer) error {
	if err := s.Check(); err != nil {
		return err
	}
	ww := wire.NewWriter(w)
	ww.U16(codecVersion)
	ww.F64s(s.Means)
	ww.F64s(s.Stds)
	return ww.Err()
}

// DecodeScaler reads a scaler previously written by Encode.
func DecodeScaler(r io.Reader) (*StandardScaler, error) {
	rr := wire.NewReader(r)
	if v := rr.U16(); rr.Err() == nil && v != codecVersion {
		return nil, fmt.Errorf("preprocess: unsupported codec version %d (this build reads %d)", v, codecVersion)
	}
	s := &StandardScaler{Means: rr.F64s(), Stds: rr.F64s()}
	if err := rr.Err(); err != nil {
		return nil, err
	}
	if err := s.Check(); err != nil {
		return nil, err
	}
	return s, nil
}

// Check refuses statistics that cannot standardise a value into a finite
// one: no columns, means and stds of different lengths, a mean that is not
// finite, or a std that is not a positive finite number. A live embedder
// keeps running sums of standardised products, and a NaN or an infinity
// that enters them never cancels out, so every feature it serves after
// that is NaN. Fit never produces such a scaler (it maps a zero std to 1);
// a corrupt artifact or a hand-built scaler can.
func (s *StandardScaler) Check() error {
	if len(s.Means) == 0 || len(s.Means) != len(s.Stds) {
		return fmt.Errorf("preprocess: corrupt scaler (%d means, %d stds)", len(s.Means), len(s.Stds))
	}
	stds := s.Stds[:len(s.Means)]
	for i, m := range s.Means {
		// x−x is 0 for every finite x and NaN otherwise, and a NaN std
		// fails sd > 0 too.
		if sd := stds[i]; (m-m)+(sd-sd) != 0 || !(sd > 0) {
			return fmt.Errorf("preprocess: scaler column %d has mean %v and std %v", i, m, sd)
		}
	}
	return nil
}

// Equal reports whether two fitted scalers carry bit-identical statistics —
// the compatibility check serving hot-swap paths run before installing a new
// model next to embedders that standardised with the old scaler.
func (s *StandardScaler) Equal(o *StandardScaler) bool {
	if s == nil || o == nil {
		return s == o
	}
	if len(s.Means) != len(o.Means) || len(s.Stds) != len(o.Stds) {
		return false
	}
	for i := range s.Means {
		if s.Means[i] != o.Means[i] || s.Stds[i] != o.Stds[i] {
			return false
		}
	}
	return true
}

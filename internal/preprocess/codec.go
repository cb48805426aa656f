package preprocess

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/wire"
)

// codecVersion is the scaler payload format; bump on incompatible layout
// changes so old readers fail descriptively instead of misloading.
const codecVersion = 1

// Encode serialises the fitted scaler's column statistics. The scaler must
// travel with any model it standardised features for, so live windows are
// preprocessed exactly as the training set was.
func (s *StandardScaler) Encode(w io.Writer) error {
	if s.Means == nil {
		return errors.New("preprocess: cannot encode an unfitted scaler")
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
	if len(s.Means) == 0 || len(s.Means) != len(s.Stds) {
		return nil, fmt.Errorf("preprocess: corrupt scaler (%d means, %d stds)", len(s.Means), len(s.Stds))
	}
	return s, nil
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

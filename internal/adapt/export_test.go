package adapt

import (
	"repro/internal/core"
	"repro/internal/mat"
)

// BaseFeatures opens the provenance trainer's regeneration step to the
// external tests (which may import the facade; this package cannot).
func (t *ProvenanceTrainer) BaseFeatures() (*core.FeaturePair, *mat.Matrix, error) {
	return t.baseFeatures()
}

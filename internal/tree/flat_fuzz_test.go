package tree

import (
	"math"
	"testing"

	"repro/internal/mat"
)

// FuzzScoreBlock holds the AVX-512 walk to the scalar lanes bit for bit on
// one fuzzed row against the fixed 100-tree ensembles of flatEnsembles,
// both compiled forms. Bit j of snap replaces feature j with one of the
// thresholds the ensemble splits feature j at (picked by the value's
// bits), so the fuzzer reaches v == thr, where `<=` sends the walk left,
// as often as it reaches NaN, ±Inf and ±0. On a CPU without AVX-512F/VL
// there is no second walk, and the target skips.
func FuzzScoreBlock(f *testing.F) {
	prev, ok := mat.SetKernelPath(mat.AVX512Path)
	if !ok {
		f.Skip("this CPU lacks AVX-512F/VL or its OS does not save their registers: no vector walk to hold to the scalar one")
	}
	mat.SetKernelPath(prev)
	_, forest, boosted := flatEnsembles(f)
	var thresholds [flatFeats][]float64
	for id, ft := range forest.feat {
		if ft >= 0 {
			thresholds[ft] = append(thresholds[ft], forest.thr[id])
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, uint8(0))
	f.Add(nan, inf, -inf, 0.0, math.Copysign(0, -1), uint8(0))
	f.Add(1.5, -2.25, 3.0, -0.5, 7.0, uint8(0x1f))
	f.Add(nan, 1e300, -1e300, 5e-324, -5e-324, uint8(0x0a))
	f.Fuzz(func(t *testing.T, v0, v1, v2, v3, v4 float64, snap uint8) {
		x := mat.New(1, flatFeats)
		copy(x.Data, []float64{v0, v1, v2, v3, v4})
		for j, v := range x.Data {
			if snap&(1<<j) != 0 && len(thresholds[j]) > 0 {
				x.Data[j] = thresholds[j][math.Float64bits(v)%uint64(len(thresholds[j]))]
			}
		}
		defer mat.SetKernelPath(mat.KernelPath())
		for _, fl := range []*Flat{forest, boosted} {
			vector, scalar := mat.New(1, flatClasses), mat.New(1, flatClasses)
			mat.SetKernelPath(mat.AVX512Path)
			fl.ScoreBlock(x, vector, 0, 1)
			mat.SetKernelPath(mat.ScalarPath)
			fl.ScoreBlock(x, scalar, 0, 1)
			requireSameBits(t, "vector walk against scalar lanes", vector.Data, scalar.Data)
		}
	})
}

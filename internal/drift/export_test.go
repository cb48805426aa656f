package drift

import "math"

// WalkFrom runs one walk of the nearest-reference search from the row of
// Train named by from (a value that names no row starts it cold): the plain
// walk Distance runs, or the certifying one DistanceCert runs on a miss. It
// returns the distance, the winning row of Train (-1 if none) and how many
// reference rows the walk visited and summed.
func (fs *FeatureStats) WalkFrom(row []float64, from int, certifying bool) (dist float64, nearest, visited, summed int) {
	var buf [stackFeatures]float64 // no allocation for BenchmarkDistance to time
	ix, z, seed, grow := fs.walkArgs(row, buf[:], from, certifying)
	best, _, won, c := ix.walk(z, seed, grow)
	return math.Sqrt(best), won, c.visited, c.summed
}

// CheckWalk is WalkFrom held to refWalk, the row-by-row walk: it returns
// the walk's distance and winner, and an error unless both walks agree on
// every output and count (see checkWalk).
func (fs *FeatureStats) CheckWalk(row []float64, from int, certifying bool) (dist float64, nearest int, err error) {
	ix, z, seed, grow := fs.walkArgs(row, nil, from, certifying)
	best, won, err := checkWalk(ix, z, seed, grow)
	return math.Sqrt(best), won, err
}

// walkArgs standardises row, into scratch when it is wide enough, and
// resolves from and certifying into walk's arguments.
func (fs *FeatureStats) walkArgs(row, scratch []float64, from int, certifying bool) (ix *searchIndex, z []float64, seed int, grow float64) {
	ix = fs.index()
	if len(row) > len(scratch) {
		z = make([]float64, len(row))
	} else {
		z = scratch[:len(row)]
	}
	fs.standardise(row, z)
	seed, grow = -1, 1.0
	if uint(from) < uint(len(ix.at)) {
		seed = int(ix.at[from])
	}
	if certifying {
		grow = certGrow
	}
	return ix, z, seed, grow
}

// OnEachPath is onEachPath for the external tests.
var OnEachPath = onEachPath

// CertHit is DistanceCert that also reports whether the proof c held
// settled the row without a walk.
func (fs *FeatureStats) CertHit(row []float64, c *Cert) (dist float64, hit bool) {
	return fs.certified(row, make([]float64, len(row)), c)
}

// Proof returns the standardised query c's proof was made at and its ρ.
func (c *Cert) Proof() (z []float64, rho float64) {
	return c.z, c.rho
}

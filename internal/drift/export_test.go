package drift

import "math"

// WalkFrom runs one walk of the nearest-reference search from the row of
// Train named by from (a value that names no row starts it cold): the plain
// walk Distance runs, or the certifying one DistanceCert runs on a miss. It
// returns the distance, the winning row of Train (-1 if none) and how many
// reference rows the walk looked at.
func (fs *FeatureStats) WalkFrom(row []float64, from int, certifying bool) (dist float64, nearest, visited int) {
	ix := fs.index()
	var buf [stackFeatures]float64 // no allocation for BenchmarkDistance to time
	z := buf[:0]
	if len(row) > len(buf) {
		z = make([]float64, len(row))
	} else {
		z = buf[:len(row)]
	}
	fs.standardise(row, z)
	seed, grow := -1, 1.0
	if uint(from) < uint(len(ix.at)) {
		seed = int(ix.at[from])
	}
	if certifying {
		grow = certGrow
	}
	best, _, won, visited := ix.walk(z, seed, grow)
	return math.Sqrt(best), won, visited
}

// CertHit is DistanceCert that also reports whether the proof c held
// settled the row without a walk.
func (fs *FeatureStats) CertHit(row []float64, c *Cert) (dist float64, hit bool) {
	return fs.certified(row, make([]float64, len(row)), c)
}

// Proof returns the standardised query c's proof was made at and its ρ.
func (c *Cert) Proof() (z []float64, rho float64) {
	return c.z, c.rho
}

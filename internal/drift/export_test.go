package drift

// Visited reports how many reference rows the search DistanceFrom runs looks
// at for row, started from the row of Train named by from, for
// BenchmarkDistance.
func (fs *FeatureStats) Visited(row []float64, from int) int {
	_, _, visited := fs.nearest(row, make([]float64, len(row)), from)
	return visited
}

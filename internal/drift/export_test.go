package drift

// Visited reports how many reference rows the search Distance runs looks at
// for row, for BenchmarkDistance.
func (fs *FeatureStats) Visited(row []float64) int {
	_, visited := fs.nearest(row, make([]float64, len(row)))
	return visited
}

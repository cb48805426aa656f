package drift

import (
	"math"
	"sort"

	"repro/internal/mat"
)

// pruneAxes is how many principal axes of the reference set the search
// projects onto. On the benchmark model's reference set (1223×28) the leading
// axis holds ~76 % of the variance and the top four ~95 %: one axis gives
// the search its window, four let it skip nine in ten rows inside the
// window without summing them, and eight measured no better than four
// (DESIGN.md §10 has the table). It is a constant, not a setting: the
// answer never depends on it, only how many rows are summed to find it.
const pruneAxes = 4

// maxAxisCols is the widest reference set whose principal axes are computed:
// past it the d×d covariance and its Jacobi sweeps (O(d³)) stop being a
// cost Decode may pay on an artifact's say-so, and the index falls back to
// coordinate axes. Every served width (28, PCA's 64) is well inside.
const maxAxisCols = 128

// Pruning slack. A row is skipped when a lower bound on its squared
// distance, computed from projections, clears the best distance so far —
// but the bound and the exact sum are rounded differently, so a bare
// `bound > best` could drop the true minimum on a near-tie. With u = 2⁻⁵³,
// n the row width, z the query, t a reference row, D = ‖z−t‖² and the axes
// forming a matrix of spectral norm ≤ 1 (buildIndex enforces it):
//
//   - the exact loop's sum is ≥ D·(1−(n+2)u);
//   - each stored or query projection is off by at most γₙ‖·‖ with
//     γₙ ≈ 1.01·n·u (a rounded n-term dot product against an axis of norm
//     ≤ 1), so the computed bound is at most (√D + 2E)²·(1+8u) with
//     E = γₙ(‖z‖+‖t‖). The error E is absolute, not relative to D: two
//     rows far from the origin and close to each other have projections
//     that cancel.
//
// Splitting (√D+2E)² ≤ D(1+ε) + 4E²(1+1/ε) with ε = relSlack/4, a bound
// above best·(1+relSlack) + 4E²(1+1/ε) implies D ≥ best·(1+relSlack/2),
// hence an exact sum ≥ best for any n below 10⁶. 4E²(1+1/ε) is at most
// 4·10⁻²²·n²·(‖z‖²+‖t‖²); absSlack is 25× that, which also covers the
// rounding of ‖z‖² itself, and tinySlack covers sums so small their terms
// underflow. Both are far below any distance the gate compares (best is
// O(1) for in-distribution rows), so they cost no pruning.
const (
	relSlack  = 1e-9
	absSlack  = 1e-20
	tinySlack = 1e-300
)

// searchIndex is the nearest-reference search structure of one
// FeatureStats: a pure function of Train, never persisted.
type searchIndex struct {
	cols int
	// axes holds pruneAxes projection axes, cols values each. Together they
	// have spectral norm ≤ 1, which is all exactness needs of them.
	axes []float64
	// proj holds pruneAxes projections per reference row, rows in ascending
	// order of the first; rows holds the reference rows in the same order.
	proj []float64
	rows []float64
	// slack is absSlack·cols²·(largest ‖t‖²): the reference half of the
	// absolute pruning slack.
	slack float64
}

// index returns the search index, building it on first use for a
// FeatureStats that was assembled by hand; FitFeatureStats and Decode build
// it before handing the value out, so no timed tick pays for it.
func (fs *FeatureStats) index() *searchIndex {
	fs.once.Do(fs.buildIndex)
	return fs.idx
}

func (fs *FeatureStats) buildIndex() {
	train := fs.Train
	n, cols := train.Rows, train.Cols
	ix := &searchIndex{cols: cols, axes: principalAxes(train)}

	proj := make([]float64, n*pruneAxes)
	order := make([]int, n)
	for i := range order {
		order[i] = i
		for k := 0; k < pruneAxes; k++ {
			proj[i*pruneAxes+k] = mat.Dot(ix.axes[k*cols:(k+1)*cols], train.Row(i))
		}
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := proj[order[a]*pruneAxes], proj[order[b]*pruneAxes]
		if pa != pb {
			return pa < pb
		}
		return order[a] < order[b]
	})
	ix.proj = make([]float64, n*pruneAxes)
	ix.rows = make([]float64, n*cols)
	norm2 := 0.0
	for at, i := range order {
		copy(ix.proj[at*pruneAxes:(at+1)*pruneAxes], proj[i*pruneAxes:(i+1)*pruneAxes])
		copy(ix.rows[at*cols:(at+1)*cols], train.Row(i))
		norm2 = math.Max(norm2, mat.Dot(train.Row(i), train.Row(i)))
	}
	ix.slack = absSlack * float64(cols) * float64(cols) * norm2
	fs.idx = ix
}

// principalAxes returns pruneAxes axes of cols values each: the leading
// eigenvectors of the reference rows' covariance, or the first coordinate
// axes when there is no covariance to take (fewer than two rows, a width
// past maxAxisCols, a decomposition that did not come back finite). Axes
// past the width are zero. The set is divided by a bound on its spectral
// norm, so the pruning bounds hold whatever the eigensolver returned.
func principalAxes(train *mat.Matrix) []float64 {
	cols := train.Cols
	k := min(pruneAxes, cols)
	axes := make([]float64, pruneAxes*cols)
	if train.Rows >= 2 && cols <= maxAxisCols {
		if cov, err := mat.Covariance(train, true); err == nil {
			if _, vecs, err := mat.EigSym(cov); err == nil {
				for a := 0; a < k; a++ {
					for j := 0; j < cols; j++ {
						axes[a*cols+j] = vecs.At(j, a)
					}
				}
			}
		}
	}
	// ‖A‖₂² = λmax(AAᵀ) ≤ the largest absolute row sum of the Gram matrix
	// (Gershgorin); for orthonormal axes that is 1 up to rounding.
	bound := 0.0
	for a := 0; a < k; a++ {
		sum := 0.0
		for b := 0; b < k; b++ {
			sum += math.Abs(mat.Dot(axes[a*cols:(a+1)*cols], axes[b*cols:(b+1)*cols]))
		}
		bound = math.Max(bound, sum)
	}
	if !(bound > 0) || math.IsInf(bound, 0) {
		// No eigenvectors, or not finite ones: coordinate axes are exactly
		// orthonormal.
		clear(axes)
		for a := 0; a < k; a++ {
			axes[a*cols+a] = 1
		}
		return axes
	}
	inv := 1 / math.Sqrt(bound)
	for i := range axes {
		axes[i] *= inv
	}
	return axes
}

// stackFeatures is the widest feature row Distance standardises on the
// stack: the covariance embedding of the challenge's 7 sensors.
const stackFeatures = 28

// Distance returns the feature-space score of one feature row: the
// Euclidean distance, in standardised coordinates, to the nearest stored
// training row.
//
//wcc:hotpath zero allocations per call at the served embedding width, pinned by an AllocsPerRun gate
func (fs *FeatureStats) Distance(row []float64) float64 {
	var z [stackFeatures]float64
	if len(row) > len(z) {
		d, _ := fs.nearest(row, make([]float64, len(row)))
		return d
	}
	d, _ := fs.nearest(row, z[:len(row)])
	return d
}

// nearest standardises row into z (same length) and finds the nearest
// reference row, also reporting how many reference rows it looked at. The
// search is exact: the distance it returns has the bits an early-abandoning
// scan of every row in Train would return, because the minimum over rows
// does not depend on the order they are visited in, every row it skips is
// proven (see relSlack) to sum to no less than the best found, and every
// row it does not skip is summed coordinate by coordinate exactly as that
// scan would.
//
// Reference rows sit in order of their projection on the leading axis. The
// search starts where the query's projection falls and walks outward, down
// then up; the gap along that one axis bounds the distance from below and
// only grows along a side, so a side ends at the first row whose gap alone
// clears the best distance. Inside that window a row is summed only if the
// bound from all pruneAxes projections does not clear it either. Every
// prune is a `bound > cut` test, false for NaN and for best = +Inf, so a
// query with a non-finite coordinate prunes nothing and returns +Inf.
func (fs *FeatureStats) nearest(row, z []float64) (dist float64, visited int) {
	ix := fs.index()
	zz := 0.0
	for j, v := range row {
		z[j] = (v - fs.Means[j]) / fs.Stds[j]
		zz += z[j] * z[j]
	}
	var q [pruneAxes]float64
	for k := range q {
		q[k] = mat.Dot(ix.axes[k*ix.cols:(k+1)*ix.cols], z)
	}
	abs := absSlack*float64(ix.cols)*float64(ix.cols)*zz + ix.slack + tinySlack

	proj, n := ix.proj, len(ix.proj)/pruneAxes
	lo, hi := 0, n // first row whose leading projection is not below the query's
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if proj[mid*pruneAxes] < q[0] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}

	// Side 0 walks down from the last row below the query's projection,
	// side 1 up from the first row not below it.
	step, end := [2]int{-1, 1}, [2]int{-1, n}
	best, cut := math.Inf(1), math.Inf(1)
	for s, start := range [2]int{hi - 1, hi} {
		for i := start; i != end[s]; i += step[s] {
			p := proj[i*pruneAxes : (i+1)*pruneAxes : (i+1)*pruneAxes]
			g := q[0] - p[0]
			bound := g * g
			if bound > cut {
				break // rows further out on this side are further off still
			}
			visited++
			for k := 1; k < pruneAxes; k++ {
				g = q[k] - p[k]
				bound += g * g
			}
			if bound > cut {
				continue
			}
			tr := ix.rows[i*ix.cols:][:len(z)] // one bounds check per row, none per element
			d := 0.0
			for j := range z {
				diff := z[j] - tr[j]
				d += diff * diff
				if d >= best {
					break
				}
			}
			if d < best {
				best = d
				cut = best + best*relSlack + abs
			}
		}
	}
	return math.Sqrt(best), visited
}

package drift

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"math/bits"
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

// blockRows is how many consecutive index rows one bound step covers: eight
// float64 lanes, one AVX-512 register per axis. A block stores its rows'
// projections axis-major, blockLen values (see searchIndex.blocks).
const (
	blockRows = 8
	blockLen  = blockRows * pruneAxes
)

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
	// blocks holds the rows' projections, rows in ascending order of the
	// first, in blocks of blockRows: block b's projection of row 8b+r on
	// axis k is blocks[b*blockLen+k*blockRows+r], and lanes past the last
	// row hold +Inf. rows holds the reference rows in the same order.
	blocks []float64
	rows   []float64
	// train maps a position in that order to the row of Train it holds, and
	// at the inverse: the row a Cert names is a row of Train, so it means
	// the same thing to every caller.
	train, at []int32
	// slack is absSlack·cols²·(largest ‖t‖²): the reference half of the
	// absolute pruning slack.
	slack float64
	// set identifies the reference set: a Cert proved against it records
	// it, and one proved against any other set, of whatever shape, does not
	// match (see setID).
	set uint64
}

// setSeed keys setID. It is drawn once per process, so no reference set can
// be built to collide with another.
var setSeed = maphash.MakeSeed()

// setID is the identity of a reference set: a seeded 64-bit hash of its
// shape and of every bit of its rows, never 0, so a zero Cert names no set.
// A proof is a statement about points in standardised space, so it holds
// for any index over the same rows; two indexes over different rows share
// an ID with probability 2⁻⁶⁴.
func setID(train *mat.Matrix) uint64 {
	var h maphash.Hash
	h.SetSeed(setSeed)
	var b [8]byte
	for _, v := range [2]int{train.Rows, train.Cols} {
		h.Write(binary.LittleEndian.AppendUint64(b[:0], uint64(v)))
	}
	for _, v := range train.Data {
		h.Write(binary.LittleEndian.AppendUint64(b[:0], math.Float64bits(v)))
	}
	return max(h.Sum64(), 1)
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
	ix := &searchIndex{cols: cols, axes: principalAxes(train), set: setID(train)}

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
	ix.blocks = make([]float64, (n+blockRows-1)/blockRows*blockLen)
	for i := range ix.blocks {
		ix.blocks[i] = math.Inf(1)
	}
	ix.rows = make([]float64, n*cols)
	ix.train, ix.at = make([]int32, n), make([]int32, n)
	norm2 := 0.0
	for at, i := range order {
		b, r := at/blockRows, at%blockRows
		for k := 0; k < pruneAxes; k++ {
			ix.blocks[b*blockLen+k*blockRows+r] = proj[i*pruneAxes+k]
		}
		copy(ix.rows[at*cols:(at+1)*cols], train.Row(i))
		ix.train[at], ix.at[i] = int32(i), int32(at)
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

// Certificate margins. A Cert says that every reference row t other than
// its winner w lies at a real distance of at least ρ from the query z_c it
// was proved at. For the next query z, with Δ = ‖z − z_c‖ and S(w) the full
// sum of z against w, the triangle inequality gives ‖z − t‖ ≥ ρ − ‖z − z_c‖;
// once ρ clears √S(w) + Δ by more than any rounding can move the three,
// every other row sums to at least S(w), so S(w) is the scan's minimum and
// √S(w) has the scan's bits. With u = 2⁻⁵³ and n the row width:
//
//   - a computed sum of n squared differences is within a factor
//     1 ± (n+2)u of the exact one, plus an absolute error below n·2⁻¹⁰⁷³
//     when its terms underflow, so its square root is within a factor
//     1 ± (n+2)u of the real distance, give or take √(n·2⁻¹⁰⁷³). That holds
//     for S(w), for Δ² and for every other row's sum;
//   - the hit test's own roundings (two products, two additions) and those
//     of ρ (a square root, a product, a difference) move each side by a few
//     u more.
//
// certEps = 10⁻⁹ is far above (n+2)u + 8u for any width below 10⁶, so it
// absorbs every relative term, and certTau = 10⁻¹⁵⁰ is far above the three
// absolute ones, each ≈ 10⁻¹⁵⁸ at such widths. The test is
// √S(w)·(1+ε) + Δ·(1+ε) + τ < ρ. It is strict, and a query that is not
// finite makes its left side NaN or +Inf, so such a query always walks.
//
// The cap's slack. A certifying walk prunes and abandons against
// cap = best·certGrow instead of best. Every row it prunes is then proved,
// by relSlack's argument with cap for best, to lie at a real squared
// distance of at least cap; every row it abandons has a computed sum of at
// least cap; and every row it sums in full, other than the winner, one of
// at least the second-smallest full sum. R = min(cap, second) thus bounds
// every computed non-winning sum from below, and every real squared distance
// from below up to the (n+2)u and underflow terms above, which the stored
// ρ = √R·(1−ε) − τ gives away. R is held to MaxFloat64: a computed sum of
// +Inf says only that the real one lies past it.
const (
	certEps = relSlack
	certTau = 1e-150
)

// certMargin is m: a certifying walk proves the reference set empty out to
// (1+m) times the winner's distance, cap = best·(1+m)². A larger m leaves a
// larger ρ, so more of the next windows are settled without a walk, but the
// walk that proves it visits and sums more rows. On the benchmark model's
// reference set (1223×28) and BenchmarkDistance's cert case (16 live jobs ×
// 63 windows one sample apart) on the AVX-512 path (medians of six runs on
// 2 shared vCPUs, whose spread is a few ns), with a miss walk priced as a
// certifying walk from the warm case's starts (the plain warm walk: about
// 590 ns, 218 rows visited):
//
//	m      hit share   cert ns/op   rows visited a miss   miss walk ns/op
//	0.03   84.0 %      170          230                   602
//	0.05   86.6 %      157          238                   624
//	0.1    89.4 %      141          237                   689
//	0.2    91.1 %      143          257                   827
//	0.3    91.4 %      158          275                   989
//
// Past 0.1 the hit share barely moves while every miss gets dearer, and the
// backfill workloads, whose ticks almost never hit, pay for every miss. It
// is a constant with this table next to it, not a setting: the answer never
// depends on it, only how often a walk runs to find it (DESIGN.md §10).
const (
	certMargin = 0.1
	certGrow   = (1 + certMargin) * (1 + certMargin)
)

// Cert is the proof one search leaves for the next: the winning row w, the
// standardised query z_c it won at, ρ, a lower bound rounded down on the
// real distance from z_c to every other reference row, and the identity of
// the reference set all three belong to (setID). A zero Cert holds no
// proof, and one proved against another reference set is ignored, whatever
// its shape. It belongs to one caller at a time, typically a job's sliding
// window: the fleet keeps one per job.
type Cert struct {
	z   []float64
	rho float64
	set uint64
	won int32
}

// Nearest returns the row of Train, in the reference set it was proved
// against, that the proof names: the nearest row to the last query scored
// with c. It returns -1 while c holds no proof.
func (c *Cert) Nearest() int {
	if c.set == 0 {
		return -1
	}
	return int(c.won)
}

// stackFeatures is the widest feature row DistanceCert standardises on the
// stack: the covariance embedding of the challenge's 7 sensors.
const stackFeatures = 28

// Distance returns the feature-space score of one feature row: the
// Euclidean distance, in standardised coordinates, to the nearest stored
// training row.
func (fs *FeatureStats) Distance(row []float64) float64 {
	var buf [stackFeatures]float64
	var z []float64
	if len(row) > len(buf) {
		z = make([]float64, len(row))
	} else {
		z = buf[:len(row)]
	}
	fs.standardise(row, z)
	best, _, _, _ := fs.index().walk(z, -1, 1)
	return math.Sqrt(best)
}

// DistanceCert is Distance for a row that is scored again and again as it
// moves, like a job's sliding window: it returns Distance's bits, and it
// leaves in c the proof the next call starts from. When the proof already
// in c shows, for this reference set, that its row is still the nearest,
// the call costs two row sums and no walk; otherwise it walks once,
// starting from that row, and proves the new winner with margin.
//
//wcc:hotpath zero allocations per call at the served embedding width once c has held a proof, pinned by an AllocsPerRun gate
func (fs *FeatureStats) DistanceCert(row []float64, c *Cert) float64 {
	var z [stackFeatures]float64
	if len(row) > len(z) {
		d, _ := fs.certified(row, make([]float64, len(row)), c)
		return d
	}
	d, _ := fs.certified(row, z[:len(row)], c)
	return d
}

// certified is DistanceCert with z (len(row)) as the standardised query's
// scratch; it also reports whether c's proof settled the query without a
// walk.
func (fs *FeatureStats) certified(row, z []float64, c *Cert) (dist float64, hit bool) {
	ix := fs.index()
	fs.standardise(row, z)
	seed := -1
	if c.set == ix.set {
		seed = int(ix.at[c.won])
		s := math.Sqrt(sqDist(z, ix.rows[seed*ix.cols:], math.Inf(1)))
		delta := math.Sqrt(sqDist(z, c.z, math.Inf(1)))
		if s*(1+certEps)+delta*(1+certEps)+certTau < c.rho {
			return s, true
		}
	}
	best, floor, won, _ := ix.walk(z, seed, certGrow)
	if won >= 0 {
		// A query no row is at a finite distance from proves nothing; the
		// proof already in c still holds for the query it was made at.
		c.z = append(c.z[:0], z...)
		c.rho = math.Sqrt(min(floor, math.MaxFloat64))*(1-certEps) - certTau
		c.set, c.won = ix.set, int32(won)
	}
	return math.Sqrt(best), false
}

// standardise writes row, in the reference set's standardised coordinates,
// into z (same length).
func (fs *FeatureStats) standardise(row, z []float64) {
	for j, v := range row {
		z[j] = (v - fs.Means[j]) / fs.Stds[j]
	}
}

// walkCount is what one walk looked at: the rows it tested against the cut
// (visited) and those no bound cleared, which it summed (summed), the
// filter's sum standing in for the exact one where it clears the cut.
type walkCount struct{ visited, summed int }

// walk finds the nearest reference row to the standardised query z, starting
// from the index position seed when it names one (-1 otherwise). It returns
// best, the smallest sum, which is the one an early-abandoning scan of every
// row in Train would return; floor, a lower bound on the computed sum of
// every other row; the winning row of Train (-1 if none won) and how many
// rows it visited and summed. It prunes and abandons against cap =
// best·grow: grow 1 is the plain search, whose floor says nothing, and
// certGrow the certifying one (see certMargin).
//
// The search is exact because the minimum over rows does not depend on the
// order they are visited in, every row it skips is proven (see relSlack) to
// sum to no less than cap ≥ best, and every row it does not skip is summed
// coordinate by coordinate exactly as that scan would. The seed row is one
// more row visited first: summed in the same coordinate order, and then
// skipped by the walk.
//
// Reference rows sit in order of their projection on the leading axis. The
// search starts where the query's projection falls and walks outward, down
// then up; the gap along that one axis bounds the distance from below and
// only grows along a side, so a side ends at the first row whose gap alone
// clears the cut. Inside that window a row is summed only if the bound from
// all pruneAxes projections does not clear it either. Every prune is a
// `bound > cut` test, false for NaN and for cap = +Inf, so a query with a
// non-finite coordinate prunes nothing and returns +Inf.
//
// The rows go by a block at a time: one bounds step tests the block's eight
// rows against the cut, and the walk visits the survivors in walk order.
// The cut only falls, so a row ended or pruned at an older cut is ended or
// pruned at the current one; when a sum lowers the cut, the step runs again
// on the same block, so every row past it is tested against the current
// cut, and the rows visited and summed are the row-by-row walk's. Before its
// exact sum, a survivor is summed in any order (rowFilter): above the cut,
// the exact sum would reach the cap (see rowFilter), so the row is skipped.
func (ix *searchIndex) walk(z []float64, seed int, grow float64) (best, floor float64, won int, c walkCount) {
	zz := 0.0
	for _, v := range z {
		zz += v * v
	}
	cols := ix.cols
	var q [pruneAxes]float64
	for k := range q {
		q[k] = mat.Dot(ix.axes[k*cols:(k+1)*cols], z)
	}
	abs := absSlack*float64(cols)*float64(cols)*zz + ix.slack + tinySlack
	vec := ix.vector(z)

	n := len(ix.train)
	best, second, cap, cut := math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)
	won = -1
	if uint(seed) < uint(n) {
		c.visited++
		c.summed++
		if d := sqDist(z, ix.rows[seed*cols:], cap); d < best {
			best, won = d, seed
			cap = best * grow
			cut = cap + cap*relSlack + abs
		}
	}

	lo, hi := 0, n // first row whose leading projection is not below the query's
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.blocks[mid/blockRows*blockLen+mid%blockRows] < q[0] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}

	// Side 0 walks down from the last row below the query's projection,
	// side 1 up from the first row not below it. Inside a block, bit r of a
	// lane mask is the r-th row the side reaches: row base+r going up,
	// base+7-r going down, whose masks bounds reverses.
	for s, i := range [2]int{hi - 1, hi} {
		up := s == 1
		for 0 <= i && i < n {
			base := i &^ (blockRows - 1)
			blk := (*[blockLen]float64)(ix.blocks[base*pruneAxes:])
			end, keep := bounds(vec, up, blk, &q, cut)
			var span, skip uint8 // the block's rows from i on; the seed's bit
			if up {
				span = 0xff << (i - base)
				if n-base < blockRows {
					span &= 1<<(n-base) - 1
				}
				if d := seed - base; uint(d) < blockRows {
					skip = 1 << d
				}
			} else {
				span = 0xff << (blockRows - 1 - (i - base))
				if d := seed - base; uint(d) < blockRows {
					skip = 1 << (blockRows - 1 - d)
				}
			}
			stop := bits.TrailingZeros8(end & span) // blockRows when the side runs on
			live := span & (1<<stop - 1)
			c.visited += bits.OnesCount8(live &^ skip)
			for surv := live & keep &^ skip; surv != 0; {
				r := bits.TrailingZeros8(surv)
				surv &= surv - 1
				row := base + r
				if !up {
					row = base + blockRows - 1 - r
				}
				c.summed++
				t := ix.rows[row*cols : (row+1)*cols]
				if f := rowFilter(vec, z, t); f > cut && f <= math.MaxFloat64 {
					continue
				}
				// second is touched only by a row summing below the cap,
				// which in a plain walk (cap = best) is always a new best:
				// keeping it off the common path measured 10–25 % faster on
				// a plain walk.
				d := sqDist(z, t, cap)
				if !(d < cap) {
					continue
				}
				if !(d < best) {
					second = min(second, d)
					continue
				}
				best, second, won = d, best, row
				cap = best * grow
				cut = cap + cap*relSlack + abs
				// Test the rows past r against the lower cut.
				end, keep = bounds(vec, up, blk, &q, cut)
				if past := end & live &^ (2<<r - 1); past != 0 {
					stop = bits.TrailingZeros8(past)
					c.visited -= bits.OnesCount8(live &^ (1<<stop - 1) &^ skip)
					live &= 1<<stop - 1
				}
				surv &= keep & live
			}
			if stop < blockRows {
				break // rows further out on this side are further off still
			}
			if up {
				i = base + blockRows
			} else {
				i = base - 1
			}
		}
	}
	if won >= 0 {
		won = int(ix.train[won])
	}
	return best, min(cap, second), won, c
}

// vector reports whether a walk for the query z takes the AVX-512 kernels:
// where the CPU has them, and only for a query exactly as wide as the rows
// rowFilter reads beside it, since the assembly checks no bounds.
func (ix *searchIndex) vector(z []float64) bool {
	return mat.AVX512() && len(z) == ix.cols && ix.cols > 0
}

// bounds tests the block's rows against cut: bit r of end is set when row
// r's leading-axis gap g₀² is above cut, and bit r of keep unless its
// four-axis bound g₀² + g₁² + g₂² + g₃², summed in that order from products
// rounded one by one, is above cut (NaN keeps). Both forms return the same
// bits. With up false, bit r is row 7−r's.
func bounds(vec, up bool, blk *[blockLen]float64, q *[pruneAxes]float64, cut float64) (end, keep uint8) {
	if vec {
		end, keep = boundsAVX512(blk, q, cut)
	} else {
		end, keep = boundsGo(blk, q, cut)
	}
	if !up {
		end, keep = bits.Reverse8(end), bits.Reverse8(keep)
	}
	return end, keep
}

// boundsGo is bounds' Go form: each product is rounded by its float64
// conversion, so no compiler fuses it into an add.
func boundsGo(blk *[blockLen]float64, q *[pruneAxes]float64, cut float64) (end, keep uint8) {
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	for r := 0; r < blockRows; r++ {
		g0, g1, g2, g3 := q0-blk[r], q1-blk[blockRows+r], q2-blk[2*blockRows+r], q3-blk[3*blockRows+r]
		b := float64(g0 * g0)
		if b > cut {
			end |= 1 << r
		}
		b += float64(g1 * g1)
		b += float64(g2 * g2)
		b += float64(g3 * g3)
		if !(b > cut) {
			keep |= 1 << r
		}
	}
	return end, keep
}

// rowFilter returns Σⱼ (zⱼ−tⱼ)² over the first len(z) values of t, from the
// same rounded terms sqDist adds but in another order. Over n non-negative
// terms any two orders give sums within a factor 1 ± 2(n−1)u of each other
// (u = 2⁻⁵³), far inside relSlack for any width below 10⁶: a filter sum
// above cut = cap·(1+relSlack) + abs puts the coordinate-order sum at or
// past cap, where sqDist's partial sums, which only grow, would abandon the
// row. NaN and +Inf clear nothing; the walk sums such rows in full.
func rowFilter(vec bool, z, t []float64) float64 {
	if vec {
		return filterAVX512(z, t)
	}
	return filterGo(z, t)
}

// filterGo is rowFilter's Go form: four interleaved partial sums.
func filterGo(z, t []float64) float64 {
	t = t[:len(z)]
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+4 <= len(z); j += 4 {
		d0, d1, d2, d3 := z[j]-t[j], z[j+1]-t[j+1], z[j+2]-t[j+2], z[j+3]-t[j+3]
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
	}
	for ; j < len(z); j++ {
		d := z[j] - t[j]
		s0 += float64(d * d)
	}
	return (s0 + s1) + (s2 + s3)
}

// sqDist is the scan's per-row sum: ‖z−tr‖² over the first len(z) values of
// tr, accumulated in coordinate order and abandoned (returning a partial sum
// ≥ cap) once it reaches cap.
func sqDist(z, tr []float64, cap float64) float64 {
	tr = tr[:len(z)] // one bounds check per row, none per element
	d := 0.0
	for j := range z {
		diff := z[j] - tr[j]
		d += diff * diff
		if d >= cap {
			break
		}
	}
	return d
}

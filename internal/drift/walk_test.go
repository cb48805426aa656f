package drift

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/mat"
)

// onEachPath runs fn as one subtest per kernel path with the walk forced
// onto it. A path the CPU cannot run is skipped, and the skip says why.
func onEachPath(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, path := range []string{mat.ScalarPath, mat.AVX512Path} {
		t.Run(path, func(t *testing.T) {
			prev, ok := mat.SetKernelPath(path)
			if !ok {
				t.Skipf("this CPU lacks AVX-512F/VL or its OS does not save their registers: the %s walk is not run", path)
			}
			defer mat.SetKernelPath(prev)
			fn(t)
		})
	}
}

// refWalk is the row-by-row walk the blocked one replaced: the same
// contract as walk, with every row's stored projections read one row at a
// time, tested against the cut in walk order and summed in coordinate
// order. It counts what it visited and summed as walk does, so the two can
// be held to each other on every output. checkIndexLayout pins what the
// blocks hold.
func refWalk(ix *searchIndex, z []float64, seed int, grow float64) (best, floor float64, won int, c walkCount) {
	cols := ix.cols
	zz := 0.0
	for _, v := range z {
		zz += v * v
	}
	var q [pruneAxes]float64
	for k := range q {
		q[k] = mat.Dot(ix.axes[k*cols:(k+1)*cols], z)
	}
	abs := absSlack*float64(cols)*float64(cols)*zz + ix.slack + tinySlack
	n := len(ix.train)
	proj := func(i, k int) float64 { return ix.blocks[i/blockRows*blockLen+k*blockRows+i%blockRows] }

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
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if proj(mid, 0) < q[0] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	step, end := [2]int{-1, 1}, [2]int{-1, n}
	for s, start := range [2]int{hi - 1, hi} {
		for i := start; i != end[s]; i += step[s] {
			g := q[0] - proj(i, 0)
			bound := float64(g * g)
			if bound > cut {
				break
			}
			if i == seed {
				continue
			}
			c.visited++
			for k := 1; k < pruneAxes; k++ {
				g = q[k] - proj(i, k)
				bound += float64(g * g)
			}
			if bound > cut {
				continue
			}
			c.summed++
			if d := sqDist(z, ix.rows[i*cols:], cap); d < cap {
				if d < best {
					best, second, won = d, best, i
					cap = best * grow
					cut = cap + cap*relSlack + abs
				} else {
					second = min(second, d)
				}
			}
		}
	}
	if won >= 0 {
		won = int(ix.train[won])
	}
	return best, min(cap, second), won, c
}

// checkWalk runs walk and refWalk for the standardised query z from the
// index position seed and returns walk's best and winner, and an error
// unless best and floor agree in math.Float64bits and the winner and both
// counts are equal.
func checkWalk(ix *searchIndex, z []float64, seed int, grow float64) (best float64, won int, err error) {
	best, floor, won, c := ix.walk(z, seed, grow)
	rbest, rfloor, rwon, rc := refWalk(ix, z, seed, grow)
	if math.Float64bits(best) != math.Float64bits(rbest) || math.Float64bits(floor) != math.Float64bits(rfloor) || won != rwon || c != rc {
		err = fmt.Errorf("%s walk from %d (grow %v): best %v floor %v won %d %+v; row-by-row walk: best %v floor %v won %d %+v",
			mat.KernelPath(), seed, grow, best, floor, won, c, rbest, rfloor, rwon, rc)
	}
	return best, won, err
}

// checkIndexLayout fails unless ix's blocks hold, for row i of the index
// on axis k, mat.Dot of the axis and the row, in the lane and block
// buildIndex documents, rows in ascending order of the first, +Inf past the
// last row, and train and at are inverse permutations naming each row.
func checkIndexLayout(t *testing.T, fs *FeatureStats) {
	t.Helper()
	ix, n, cols := fs.index(), fs.Train.Rows, fs.Train.Cols
	if want := (n + blockRows - 1) / blockRows * blockLen; len(ix.blocks) != want {
		t.Fatalf("%d rows: %d block values, want %d", n, len(ix.blocks), want)
	}
	for i := 0; i < (n+blockRows-1)/blockRows*blockRows; i++ {
		for k := 0; k < pruneAxes; k++ {
			got, want := ix.blocks[i/blockRows*blockLen+k*blockRows+i%blockRows], math.Inf(1)
			if i < n {
				want = mat.Dot(ix.axes[k*cols:(k+1)*cols], fs.Train.Row(int(ix.train[i])))
				if int(ix.at[ix.train[i]]) != i || !slices.Equal(ix.rows[i*cols:(i+1)*cols], fs.Train.Row(int(ix.train[i]))) {
					t.Fatalf("index row %d does not hold row %d of Train", i, ix.train[i])
				}
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("index row %d axis %d: block holds %v, want %v", i, k, got, want)
			}
		}
		if i > 0 && i < n && ix.blocks[i/blockRows*blockLen+i%blockRows] < ix.blocks[(i-1)/blockRows*blockLen+(i-1)%blockRows] {
			t.Fatalf("index rows %d and %d out of order on the leading axis", i-1, i)
		}
	}
}

// randomFeatureStats returns a rows×cols reference set with Means 0 and Stds
// 1, so a query is its own standardised form, and its index built.
func randomFeatureStats(rng *rand.Rand, rows, cols int, scale float64) *FeatureStats {
	fs := &FeatureStats{Means: make([]float64, cols), Stds: make([]float64, cols), Train: mat.New(rows, cols)}
	for j := range fs.Stds {
		fs.Stds[j] = 1
	}
	for i := range fs.Train.Data {
		fs.Train.Data[i] = rng.NormFloat64() * scale
	}
	fs.index()
	return fs
}

// TestBoundsKernelsMatchRowByRow holds boundsGo and boundsAVX512 to the
// row-by-row walk's bound, bit for bit: on random and hostile blocks, each
// lane's two bounds are formed as that walk forms them, and the cut is set
// to each of them and to the float64 just below, where a bound that differs
// by one rounding (a fused multiply-add, another order) flips a bit.
func TestBoundsKernelsMatchRowByRow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	hostile := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 5e-324, 1e-160, 1 + 0x1p-52}
	vec := mat.AVX512()
	if !vec {
		t.Log("no AVX-512 on this host: boundsGo is held to the row-by-row bound alone")
	}
	for trial := 0; trial < 3000; trial++ {
		var blk [blockLen]float64
		var q [pruneAxes]float64
		scale := math.Pow(10, float64(rng.Intn(13)-6))
		for i := range blk {
			blk[i] = rng.NormFloat64() * scale
			if trial%3 == 0 && rng.Intn(8) == 0 {
				blk[i] = hostile[rng.Intn(len(hostile))]
			}
		}
		for k := range q {
			q[k] = rng.NormFloat64() * scale
			if trial%5 == 0 && rng.Intn(4) == 0 {
				q[k] = hostile[rng.Intn(len(hostile))]
			}
		}
		var cuts []float64
		for r := 0; r < blockRows; r++ {
			g := q[0] - blk[r]
			lead := float64(g * g)
			b := lead
			for k := 1; k < pruneAxes; k++ {
				g = q[k] - blk[k*blockRows+r]
				b += float64(g * g)
			}
			cuts = append(cuts, lead, math.Nextafter(lead, math.Inf(-1)), b, math.Nextafter(b, math.Inf(-1)))
		}
		cuts = append(cuts, 0, math.Inf(1), math.NaN())
		for _, cut := range cuts {
			var wantEnd, wantKeep uint8
			for r := 0; r < blockRows; r++ {
				g := q[0] - blk[r]
				b := float64(g * g)
				if b > cut {
					wantEnd |= 1 << r
				}
				for k := 1; k < pruneAxes; k++ {
					g = q[k] - blk[k*blockRows+r]
					b += float64(g * g)
				}
				if !(b > cut) {
					wantKeep |= 1 << r
				}
			}
			if end, keep := boundsGo(&blk, &q, cut); end != wantEnd || keep != wantKeep {
				t.Fatalf("trial %d cut %v: boundsGo end %08b keep %08b, row by row %08b %08b", trial, cut, end, keep, wantEnd, wantKeep)
			}
			if !vec {
				continue
			}
			if end, keep := boundsAVX512(&blk, &q, cut); end != wantEnd || keep != wantKeep {
				t.Fatalf("trial %d cut %v: boundsAVX512 end %08b keep %08b, row by row %08b %08b", trial, cut, end, keep, wantEnd, wantKeep)
			}
		}
	}
}

// TestFilterKernelsWithinReorderBound holds filterGo and filterAVX512, on
// every width from 0 to 70 (every tail of both), to the coordinate-order
// sum sqDist adds: within a factor 1 ± 2(n−1)u, the bound rowFilter's
// skip rests on, and equal to it when every term but one is zero. NaN and
// infinite terms give the same class of value on every form.
func TestFilterKernelsWithinReorderBound(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vec := mat.AVX512()
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 60; trial++ {
			z, tr := make([]float64, n), make([]float64, n+3) // t may be longer than z
			scale := math.Pow(10, float64(rng.Intn(9)-4))
			for j := range z {
				z[j], tr[j] = rng.NormFloat64()*scale, rng.NormFloat64()*scale
				if trial%4 == 1 {
					tr[j] = z[j] // one nonzero term below: every order sums it exactly
				}
			}
			for j := n; j < len(tr); j++ {
				tr[j] = math.NaN() // past len(z): never read
			}
			if trial%4 == 1 && n > 0 {
				tr[rng.Intn(n)] += scale
			}
			if trial%10 == 3 && n > 0 {
				z[rng.Intn(n)] = []float64{math.NaN(), math.Inf(1), 1e200}[trial%3]
			}
			want := sqDist(z, tr, math.Inf(1))
			forms := []func() float64{func() float64 { return filterGo(z, tr) }}
			if vec {
				forms = append(forms, func() float64 { return filterAVX512(z, tr) })
			}
			for i, form := range forms {
				got := form()
				tol := 2 * float64(max(n-1, 0)) * 0x1p-53 * want
				switch {
				case math.IsNaN(want) || math.IsInf(want, 1):
					if !(math.IsNaN(got) == math.IsNaN(want) && math.IsInf(got, 1) == math.IsInf(want, 1)) {
						t.Fatalf("n %d trial %d form %d: %v, coordinate order %v", n, trial, i, got, want)
					}
				case trial%4 == 1 && math.Float64bits(got) != math.Float64bits(want):
					t.Fatalf("n %d trial %d form %d: one nonzero term sums to %v, coordinate order %v", n, trial, i, got, want)
				case math.Abs(got-want) > tol:
					t.Fatalf("n %d trial %d form %d: %v, coordinate order %v, off by more than %v", n, trial, i, got, want, tol)
				}
			}
		}
	}
}

// TestWalkMatchesRowByRow checks the index layout (checkIndexLayout) and
// holds walk to refWalk on both paths, for plain
// and certifying walks from every kind of start, on random sets whose sizes
// put the seed and the query's position at every lane of a block and at
// both edges of the set: best, floor, the winner and the rows visited and
// summed must all agree.
func TestWalkMatchesRowByRow(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for _, rows := range []int{1, 7, 8, 9, 16, 17, 63, 300} {
			for _, cols := range []int{1, 3, 8, 28} {
				fs := randomFeatureStats(rng, rows, cols, 1)
				checkIndexLayout(t, fs)
				ix := fs.index()
				z := make([]float64, cols)
				for trial := 0; trial < 40; trial++ {
					base := fs.Train.Row(rng.Intn(rows))
					for j := range z {
						z[j] = base[j] + rng.NormFloat64()*[]float64{1e-3, 0.3, 3, 30}[trial%4]
					}
					for _, seed := range []int{-1, 0, rows - 1, rng.Intn(rows), int(ix.at[0])} {
						for _, grow := range []float64{1, certGrow} {
							if _, _, err := checkWalk(ix, z, seed, grow); err != nil {
								t.Fatalf("%d×%d trial %d: %v", rows, cols, trial, err)
							}
						}
					}
				}
			}
		}
	})
}

// TestWalkPermutedTies walks reference sets whose rows are permutations of
// one vector, from the origin: every row lies at the same real distance,
// and the computed sums differ only in how their terms were rounded and
// ordered, by a few ulps either way. That is where an order-free filter
// compared with the cap itself, not with the slackened cut, skips a row
// whose coordinate-order sum is below the cap. Both walks, on both paths,
// must return the exhaustive scan's bits and refWalk's floor and counts.
func TestWalkPermutedTies(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		for trial := 0; trial < 30; trial++ {
			cols := []int{9, 28, 29}[trial%3]
			v := make([]float64, cols)
			for j := range v {
				v[j] = math.Exp(4*rng.NormFloat64()) * float64(1-2*rng.Intn(2))
			}
			fs := &FeatureStats{Means: make([]float64, cols), Stds: make([]float64, cols), Train: mat.New(300, cols)}
			for j := range fs.Stds {
				fs.Stds[j] = 1
			}
			for i := 0; i < fs.Train.Rows; i++ {
				r := fs.Train.Row(i)
				for j, p := range rng.Perm(cols) {
					r[j] = v[p]
				}
			}
			ix := fs.index()
			z := make([]float64, cols)
			for probe := 0; probe < 4; probe++ {
				if probe > 0 {
					for j := range z {
						z[j] = rng.NormFloat64() * 1e-12
					}
				}
				want := math.Inf(1)
				for i := 0; i < fs.Train.Rows; i++ {
					want = min(want, sqDist(z, fs.Train.Row(i), math.Inf(1)))
				}
				for _, seed := range []int{-1, rng.Intn(fs.Train.Rows)} {
					for _, grow := range []float64{1, certGrow} {
						best, _, err := checkWalk(ix, z, seed, grow)
						if err != nil {
							t.Fatalf("trial %d probe %d: %v", trial, probe, err)
						}
						if math.Float64bits(best) != math.Float64bits(want) {
							t.Fatalf("trial %d probe %d from %d (grow %v): walk %v (%#x), exhaustive scan %v (%#x)",
								trial, probe, seed, grow, best, math.Float64bits(best), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	})
}

// TestWalkNeedsFullWidthQuery pins the guard in front of the AVX-512
// kernels, which check no bounds: filterAVX512 reads as many values of the
// reference row as the query has, so a query of any other width than the
// rows' takes the Go kernels even with the AVX-512 path forced, and a
// scored row of the wrong width is Go's index panic on either path.
func TestWalkNeedsFullWidthQuery(t *testing.T) {
	fs := randomFeatureStats(rand.New(rand.NewSource(4)), 40, 28, 1)
	ix := fs.index()
	onEachPath(t, func(t *testing.T) {
		for _, cols := range []int{0, 1, 27, 29, 56} {
			if ix.vector(make([]float64, cols)) {
				t.Fatalf("a %d-wide query would enter the AVX-512 kernels over 28-wide rows", cols)
			}
		}
		if got, want := ix.vector(make([]float64, 28)), mat.AVX512(); got != want {
			t.Fatalf("a full-width query takes the AVX-512 kernels: %t, want %t", got, want)
		}
		for _, cols := range []int{27, 29} {
			func() {
				defer func() {
					err, ok := recover().(runtime.Error)
					if !ok || !strings.Contains(err.Error(), "out of range") {
						t.Fatalf("scoring a %d-wide row against 28-wide rows: recovered %v, want an index panic", cols, err)
					}
				}()
				fs.Distance(make([]float64, cols))
			}()
		}
	})
}

// FuzzWalk holds the plain and certifying walks, on both paths, to each
// other, to refWalk and to the exhaustive scan, on a fuzzed query and seed
// row against fixed reference sets: a gaussian cloud and a line (where the
// bounds are tight), 300 rows each, 28 wide. The query is row pick of the
// set plus the four fuzzed values, spread over the coordinates by spread's
// bits and scaled by 10^(exp mod 16 − 8), so the fuzzer reaches rows, near
// ties, far points and non-finite coordinates alike.
func FuzzWalk(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	cloud := randomFeatureStats(rng, 300, stackFeatures, 1)
	line := &FeatureStats{Means: cloud.Means, Stds: cloud.Stds, Train: mat.New(300, stackFeatures)}
	dir := make([]float64, stackFeatures)
	for j := range dir {
		dir[j] = rng.NormFloat64()
	}
	for i := 0; i < line.Train.Rows; i++ {
		for j, d := range dir {
			line.Train.Row(i)[j] = float64(i-150)*d + rng.NormFloat64()*1e-9
		}
	}
	line.index()
	sets := []*FeatureStats{cloud, line}

	nan, inf := math.NaN(), math.Inf(1)
	f.Add(uint16(0), int32(-1), 0.0, 0.0, 0.0, 0.0, uint32(0), uint8(0))
	f.Add(uint16(17), int32(17), 1.0, -1.0, 0.5, 0.25, uint32(0xffffffff), uint8(8))
	f.Add(uint16(301), int32(3), 0.5, 0.5, 0.5, 0.5, uint32(0x0f0f0f0f), uint8(4))
	f.Add(uint16(42), int32(299), nan, inf, -inf, 1e300, uint32(0x11), uint8(9))
	f.Add(uint16(150), int32(-7), 1e-9, -1e-9, 3.0, 0.0, uint32(0xaaaaaaaa), uint8(2))
	f.Fuzz(func(t *testing.T, pick uint16, from int32, d0, d1, d2, d3 float64, spread uint32, exp uint8) {
		fs := sets[int(pick)%len(sets)]
		ix := fs.index()
		z := append([]float64(nil), fs.Train.Row(int(pick)%fs.Train.Rows)...)
		d, scale := [4]float64{d0, d1, d2, d3}, math.Pow(10, float64(exp%16)-8)
		for j := range z {
			if spread>>(j%32)&1 != 0 {
				z[j] += d[j%4] * scale
			}
		}
		want := math.Inf(1)
		for i := 0; i < fs.Train.Rows; i++ {
			if s := sqDist(z, fs.Train.Row(i), want); s < want {
				want = s
			}
		}
		seed := -1
		if uint(from) < uint(len(ix.at)) {
			seed = int(ix.at[from])
		}
		defer mat.SetKernelPath(mat.KernelPath())
		for _, path := range []string{mat.ScalarPath, mat.AVX512Path} {
			if _, ok := mat.SetKernelPath(path); !ok {
				continue // no AVX-512 on this host
			}
			for _, grow := range []float64{1, certGrow} {
				best, _, err := checkWalk(ix, z, seed, grow)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(best) != math.Float64bits(want) {
					t.Fatalf("%s walk from %d (grow %v): %v (%#x), exhaustive scan %v (%#x)",
						path, seed, grow, best, math.Float64bits(best), want, math.Float64bits(want))
				}
			}
		}
	})
}

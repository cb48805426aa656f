package tree

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/mat"
)

// Order is one fit's presorted split order. For every feature it holds
// each row's rank in ascending value order, ties broken by row index, and
// the value and the row at every rank. It is built once per fit, read-only
// afterwards, and shared by every tree grown from it — the forest's
// concurrent trees and each of the booster's rounds alike.
//
// A node sorts its rows for one feature by radix-sorting their ranks
// (SortRanks) and then reads values and rows by rank, so the exact greedy
// search runs no comparator and touches no matrix row.
type Order struct {
	n, d  int
	rank  []uint32  // [f·n + row] → the row's rank in feature f
	value []float64 // [f·n + rank] → the value at that rank
	row   []uint32  // [f·n + rank] → the row at that rank
	// passes is how many 8-bit digits a rank below n needs.
	passes int
}

// NewOrder ranks every feature of x. It refuses a non-finite value, naming
// its row and column: NaN has no place in an ascending order, and an
// infinite value would put the midpoint threshold beside it at ±Inf or NaN.
func NewOrder(x *mat.Matrix) (*Order, error) {
	n, d := x.Rows, x.Cols
	if n == 0 || d == 0 {
		return nil, errors.New("no training rows or features to rank")
	}
	if uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("%d training rows is more than a rank can index", n)
	}
	if len(x.Data) != n*d {
		return nil, fmt.Errorf("matrix is %dx%d but holds %d values", n, d, len(x.Data))
	}
	for i := 0; i < n; i++ {
		for f, v := range x.Row(i) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("non-finite training feature %v at row %d, column %d", v, i, f)
			}
		}
	}
	o := &Order{
		n: n, d: d,
		rank:  make([]uint32, n*d),
		value: make([]float64, n*d),
		row:   make([]uint32, n*d),
	}
	for top := uint64(n - 1); top > 0; top >>= 8 {
		o.passes++
	}
	col := make([]float64, n)
	for f := 0; f < d; f++ {
		for i := range col {
			col[i] = x.Data[i*d+f]
		}
		rows := o.row[f*n : (f+1)*n]
		for i := range rows {
			rows[i] = uint32(i)
		}
		// -0 and +0 compare equal here, as they do under the split
		// search's `==`, so their tie is broken by row index too.
		slices.SortFunc(rows, func(a, b uint32) int {
			if c := cmp.Compare(col[a], col[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		vals, ranks := o.value[f*n:(f+1)*n], o.rank[f*n:(f+1)*n]
		for r, i := range rows {
			vals[r] = col[i]
			ranks[i] = uint32(r)
		}
	}
	return o, nil
}

// Rows is the row count of the matrix the order was built from.
func (o *Order) Rows() int { return o.n }

// Cols is the feature count of the matrix the order was built from.
func (o *Order) Cols() int { return o.d }

// Values returns feature f's values in rank order.
func (o *Order) Values(f int) []float64 { return o.value[f*o.n : (f+1)*o.n] }

// RowsByRank returns feature f's rows in rank order.
func (o *Order) RowsByRank(f int) []uint32 { return o.row[f*o.n : (f+1)*o.n] }

// insertionCutoff is the node size below which SortRanks insertion-sorts:
// under it, clearing and prefix-summing 256 counters per pass costs more
// than the quadratic sort saves.
const insertionCutoff = 48

// SortRanks writes the ranks in feature f of rows (repetition allowed) to
// keys in ascending order and returns them. keys and tmp must each hold
// len(rows); the result aliases one of them.
func (o *Order) SortRanks(f int, rows []int, keys, tmp []uint32) []uint32 {
	ranks := o.rank[f*o.n : (f+1)*o.n]
	keys, tmp = keys[:len(rows)], tmp[:len(rows)]
	for j, i := range rows {
		keys[j] = ranks[i]
	}
	if len(keys) < insertionCutoff {
		for j := 1; j < len(keys); j++ {
			k := keys[j]
			i := j
			for ; i > 0 && keys[i-1] > k; i-- {
				keys[i] = keys[i-1]
			}
			keys[i] = k
		}
		return keys
	}
	var count [256]int
	for p := 0; p < o.passes; p++ {
		shift := 8 * p
		count = [256]int{}
		for _, k := range keys {
			count[(k>>shift)&0xff]++
		}
		// Every key shares this digit: the pass would copy keys as they are.
		if count[(keys[0]>>shift)&0xff] == len(keys) {
			continue
		}
		sum := 0
		for b, c := range count {
			count[b] = sum
			sum += c
		}
		for _, k := range keys {
			b := (k >> shift) & 0xff
			tmp[count[b]] = k
			count[b]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// Partition moves the rows whose feature f is at most thresh to the front
// of rows and returns how many there are. Both sides keep their relative
// order, so a child visits its rows in the order its parent did. spill
// must hold len(rows). It compares values, not ranks, because a midpoint
// threshold can round onto the value above it.
func (o *Order) Partition(rows []int, f int, thresh float64, spill []int) int {
	ranks, vals := o.rank[f*o.n:(f+1)*o.n], o.value[f*o.n:(f+1)*o.n]
	nl, nr := 0, 0
	for _, i := range rows {
		if vals[ranks[i]] <= thresh {
			rows[nl] = i
			nl++
		} else {
			spill[nr] = i
			nr++
		}
	}
	copy(rows[nl:], spill[:nr])
	return nl
}

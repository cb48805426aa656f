package nn

import (
	"math"
	"math/rand"

	"repro/internal/mat"
)

// LSTM is a single-direction LSTM layer processing a batch of sequences.
// Gate order in the packed weight matrices is (input, forget, cell, output).
type LSTM struct {
	InSize, HiddenSize int

	Wx *Param // in×4h
	Wh *Param // h×4h
	B  *Param // 1×4h

	// Forward caches for BPTT.
	xs    []*mat.Matrix // inputs per step, B×in
	hs    []*mat.Matrix // hidden states per step (hs[0] is the initial zero state)
	cs    []*mat.Matrix // cell states per step
	gates []*mat.Matrix // post-activation gates per step, B×4h
	tanhC []*mat.Matrix // tanh(c_t) per step
}

// NewLSTM builds a Glorot-initialised LSTM with the forget-gate bias set to
// 1, the standard trick for gradient flow early in training.
func NewLSTM(in, hidden int, rng *rand.Rand) *LSTM {
	l := &LSTM{
		InSize:     in,
		HiddenSize: hidden,
		Wx:         newParam("lstm.Wx", in, 4*hidden),
		Wh:         newParam("lstm.Wh", hidden, 4*hidden),
		B:          newParam("lstm.b", 1, 4*hidden),
	}
	glorotInit(l.Wx.W, in, 4*hidden, rng)
	glorotInit(l.Wh.W, hidden, 4*hidden, rng)
	for j := hidden; j < 2*hidden; j++ {
		l.B.W.Set(0, j, 1)
	}
	return l
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// Forward runs the batch sequence (T matrices of B×in) and returns the
// hidden state at every step (T matrices of B×h).
func (l *LSTM) Forward(seq []*mat.Matrix) []*mat.Matrix {
	t := len(seq)
	b := seq[0].Rows
	h := l.HiddenSize

	l.xs = seq
	l.hs = make([]*mat.Matrix, t+1)
	l.cs = make([]*mat.Matrix, t+1)
	l.gates = make([]*mat.Matrix, t)
	l.tanhC = make([]*mat.Matrix, t)
	l.hs[0] = mat.New(b, h)
	l.cs[0] = mat.New(b, h)

	outs := make([]*mat.Matrix, t)
	pre := mat.New(b, 4*h)
	for step := 0; step < t; step++ {
		mat.MulInto(pre, seq[step], l.Wx.W)
		hprev := l.hs[step]
		// pre += hprev·Wh + b
		for i := 0; i < b; i++ {
			prow := pre.Row(i)
			hrow := hprev.Row(i)
			for a, hv := range hrow {
				if hv == 0 {
					continue
				}
				wrow := l.Wh.W.Row(a)
				for j, wv := range wrow {
					prow[j] += hv * wv
				}
			}
			bias := l.B.W.Row(0)
			for j := range prow {
				prow[j] += bias[j]
			}
		}

		gates := mat.New(b, 4*h)
		ct := mat.New(b, h)
		ht := mat.New(b, h)
		th := mat.New(b, h)
		for i := 0; i < b; i++ {
			prow := pre.Row(i)
			grow := gates.Row(i)
			cprev := l.cs[step].Row(i)
			crow := ct.Row(i)
			hrow := ht.Row(i)
			trow := th.Row(i)
			for j := 0; j < h; j++ {
				ig := sigmoid(prow[j])
				fg := sigmoid(prow[h+j])
				gg := math.Tanh(prow[2*h+j])
				og := sigmoid(prow[3*h+j])
				grow[j] = ig
				grow[h+j] = fg
				grow[2*h+j] = gg
				grow[3*h+j] = og
				c := fg*cprev[j] + ig*gg
				crow[j] = c
				tc := math.Tanh(c)
				trow[j] = tc
				hrow[j] = og * tc
			}
		}
		l.gates[step] = gates
		l.tanhC[step] = th
		l.cs[step+1] = ct
		l.hs[step+1] = ht
		outs[step] = ht
	}
	return outs
}

// Backward runs BPTT. dOut holds the gradient w.r.t. the hidden output at
// each step (entries may be nil when a step's output is unused). It returns
// the gradient w.r.t. the input sequence and accumulates parameter
// gradients.
func (l *LSTM) Backward(dOut []*mat.Matrix) []*mat.Matrix {
	t := len(l.xs)
	b := l.xs[0].Rows
	h := l.HiddenSize

	dxs := make([]*mat.Matrix, t)
	dhNext := mat.New(b, h)
	dcNext := mat.New(b, h)
	dPre := mat.New(b, 4*h)

	for step := t - 1; step >= 0; step-- {
		dh := dhNext
		if dOut[step] != nil {
			dh = dh.Clone()
			if err := dh.Add(dOut[step]); err != nil {
				panic(err)
			}
		}

		gates := l.gates[step]
		th := l.tanhC[step]
		cprev := l.cs[step]
		dcNew := mat.New(b, h)
		for i := 0; i < b; i++ {
			grow := gates.Row(i)
			trow := th.Row(i)
			dhrow := dh.Row(i)
			dcrow := dcNext.Row(i)
			cprow := cprev.Row(i)
			dprow := dPre.Row(i)
			dcnew := dcNew.Row(i)
			for j := 0; j < h; j++ {
				ig, fg, gg, og := grow[j], grow[h+j], grow[2*h+j], grow[3*h+j]
				tc := trow[j]
				dc := dcrow[j] + dhrow[j]*og*(1-tc*tc)
				// Gate pre-activation gradients.
				dprow[j] = dc * gg * ig * (1 - ig)         // input gate
				dprow[h+j] = dc * cprow[j] * fg * (1 - fg) // forget gate
				dprow[2*h+j] = dc * ig * (1 - gg*gg)       // candidate
				dprow[3*h+j] = dhrow[j] * tc * og * (1 - og)
				dcnew[j] = dc * fg
			}
		}

		// Parameter gradients: dWx += x_tᵀ·dPre ; dWh += h_{t-1}ᵀ·dPre ;
		// db += Σ dPre.
		x := l.xs[step]
		hprev := l.hs[step]
		for i := 0; i < b; i++ {
			xrow := x.Row(i)
			dprow := dPre.Row(i)
			for a, xv := range xrow {
				if xv == 0 {
					continue
				}
				dst := l.Wx.Grad.Row(a)
				for j, dv := range dprow {
					dst[j] += xv * dv
				}
			}
			hrow := hprev.Row(i)
			for a, hv := range hrow {
				if hv == 0 {
					continue
				}
				dst := l.Wh.Grad.Row(a)
				for j, dv := range dprow {
					dst[j] += hv * dv
				}
			}
			bg := l.B.Grad.Row(0)
			for j, dv := range dprow {
				bg[j] += dv
			}
		}

		// Input gradient dx = dPre·Wxᵀ and recurrent dh = dPre·Whᵀ.
		dx := mat.New(b, l.InSize)
		mat.MulTransInto(dx, dPre, l.Wx.W)
		dxs[step] = dx
		dhPrev := mat.New(b, h)
		mat.MulTransInto(dhPrev, dPre, l.Wh.W)
		dhNext = dhPrev
		dcNext = dcNew
	}
	return dxs
}

// Params returns the LSTM trainables.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

// BiLSTM runs one LSTM forward in time and a second one backward. Stacked
// layers read its output at every step (ForwardSeq); the classification
// head reads the concatenation of the two directions' final hidden states
// (Final).
type BiLSTM struct {
	Fwd, Bwd *LSTM
	seqLen   int
}

// NewBiLSTM builds both directions.
func NewBiLSTM(in, hidden int, rng *rand.Rand) *BiLSTM {
	return &BiLSTM{Fwd: NewLSTM(in, hidden, rng), Bwd: NewLSTM(in, hidden, rng)}
}

// Params returns both directions' trainables.
func (bl *BiLSTM) Params() []*Param {
	return append(bl.Fwd.Params(), bl.Bwd.Params()...)
}

// ForwardSeq returns the bidirectional output at every step: out[t] is
// B×2h holding the forward hidden at t and the backward hidden at t (the
// backward LSTM having processed the sequence in reverse). Used when
// stacking BiLSTM layers.
func (bl *BiLSTM) ForwardSeq(seq []*mat.Matrix) []*mat.Matrix {
	bl.seqLen = len(seq)
	rev := make([]*mat.Matrix, len(seq))
	for i, m := range seq {
		rev[len(seq)-1-i] = m
	}
	fo := bl.Fwd.Forward(seq)
	bo := bl.Bwd.Forward(rev)
	b := seq[0].Rows
	h := bl.Fwd.HiddenSize
	outs := make([]*mat.Matrix, len(seq))
	for t := range seq {
		out := mat.New(b, 2*h)
		bwd := bo[len(seq)-1-t] // backward output at original position t
		for i := 0; i < b; i++ {
			copy(out.Row(i)[:h], fo[t].Row(i))
			copy(out.Row(i)[h:], bwd.Row(i))
		}
		outs[t] = out
	}
	return outs
}

// BackwardSeq is the counterpart of ForwardSeq: per-step output gradients
// in, input-sequence gradients out. A nil step gradient is a step whose
// output is unused.
func (bl *BiLSTM) BackwardSeq(dOuts []*mat.Matrix) []*mat.Matrix {
	t := bl.seqLen
	h := bl.Fwd.HiddenSize
	dF := make([]*mat.Matrix, t)
	dB := make([]*mat.Matrix, t)
	for step := 0; step < t; step++ {
		if dOuts[step] == nil {
			continue
		}
		b := dOuts[step].Rows
		gf := mat.New(b, h)
		gb := mat.New(b, h)
		for i := 0; i < b; i++ {
			copy(gf.Row(i), dOuts[step].Row(i)[:h])
			copy(gb.Row(i), dOuts[step].Row(i)[h:])
		}
		dF[step] = gf
		dB[t-1-step] = gb // map back to the backward LSTM's own time order
	}
	dxF := bl.Fwd.Backward(dF)
	dxB := bl.Bwd.Backward(dB)
	dxs := make([]*mat.Matrix, t)
	for step := 0; step < t; step++ {
		d := dxF[step].Clone()
		if err := d.Add(dxB[t-1-step]); err != nil {
			panic(err)
		}
		dxs[step] = d
	}
	return dxs
}

// Final is the summary vector the classification head reads, B×2h, from
// ForwardSeq's output: the forward direction's hidden state after the last
// step, outs[T−1][:h], beside the backward direction's after it has read
// the whole sequence, outs[0][h:].
func (bl *BiLSTM) Final(outs []*mat.Matrix) *mat.Matrix {
	h := bl.Fwd.HiddenSize
	last, first := outs[len(outs)-1], outs[0]
	out := mat.New(last.Rows, 2*h)
	for i := 0; i < last.Rows; i++ {
		copy(out.Row(i)[:h], last.Row(i)[:h])
		copy(out.Row(i)[h:], first.Row(i)[h:])
	}
	return out
}

// FinalGrad is Final's counterpart: it spreads the summary vector's
// gradient onto the per-step output gradients BackwardSeq takes, nil at
// every step Final does not read.
func (bl *BiLSTM) FinalGrad(grad *mat.Matrix) []*mat.Matrix {
	t := bl.seqLen
	h := bl.Fwd.HiddenSize
	dOuts := make([]*mat.Matrix, t)
	dOuts[t-1] = mat.New(grad.Rows, 2*h)
	dOuts[0] = dOuts[t-1]
	if t > 1 {
		dOuts[0] = mat.New(grad.Rows, 2*h)
	}
	for i := 0; i < grad.Rows; i++ {
		copy(dOuts[t-1].Row(i)[:h], grad.Row(i)[:h])
		copy(dOuts[0].Row(i)[h:], grad.Row(i)[h:])
	}
	return dOuts
}

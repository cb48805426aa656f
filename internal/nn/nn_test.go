package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

func TestDenseForwardKnown(t *testing.T) {
	d := NewDense(2, 2, rand.New(rand.NewSource(1)))
	copy(d.W.W.Data, []float64{1, 2, 3, 4})
	copy(d.B.W.Data, []float64{0.5, -0.5})
	x, _ := mat.FromRows([][]float64{{1, 1}})
	out := d.Forward(x)
	if math.Abs(out.At(0, 0)-4.5) > 1e-12 || math.Abs(out.At(0, 1)-5.5) > 1e-12 {
		t.Errorf("dense forward = %v", out)
	}
}

// numericalGrad estimates d loss / d w[i] by central differences.
func numericalGrad(f func() float64, w []float64, i int) float64 {
	const eps = 1e-5
	orig := w[i]
	w[i] = orig + eps
	lp := f()
	w[i] = orig - eps
	lm := f()
	w[i] = orig
	return (lp - lm) / (2 * eps)
}

func TestDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDense(3, 2, rng)
	x := mat.New(4, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := []int{0, 1, 1, 0}
	ls := &LogSoftmax{}

	loss := func() float64 {
		out := ls.Forward(d.Forward(x))
		l, _ := NLLLoss(out, y)
		return l
	}
	// Analytic gradients.
	out := ls.Forward(d.Forward(x))
	_, grad := NLLLoss(out, y)
	ZeroGrads(d.Params())
	d.Backward(ls.Backward(grad))

	for _, p := range d.Params() {
		for i := 0; i < len(p.W.Data); i += 2 {
			num := numericalGrad(loss, p.W.Data, i)
			if math.Abs(num-p.Grad.Data[i]) > 1e-6*(1+math.Abs(num)) {
				t.Fatalf("%s[%d]: analytic %v numeric %v", p.Name, i, p.Grad.Data[i], num)
			}
		}
	}
}

func TestLSTMGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLSTM(2, 3, rng)
	seqLen, batch := 4, 2
	seq := make([]*mat.Matrix, seqLen)
	for s := range seq {
		seq[s] = mat.New(batch, 2)
		for i := range seq[s].Data {
			seq[s].Data[i] = rng.NormFloat64()
		}
	}
	y := []int{1, 2}
	ls := &LogSoftmax{}

	loss := func() float64 {
		out := ls.Forward(l.Forward(seq)[seqLen-1])
		v, _ := NLLLoss(out, y)
		return v
	}
	out := ls.Forward(l.Forward(seq)[seqLen-1])
	_, grad := NLLLoss(out, y)
	ZeroGrads(l.Params())
	dOut := make([]*mat.Matrix, seqLen)
	dOut[seqLen-1] = ls.Backward(grad)
	l.Backward(dOut)

	for _, p := range l.Params() {
		step := len(p.W.Data)/5 + 1
		for i := 0; i < len(p.W.Data); i += step {
			num := numericalGrad(loss, p.W.Data, i)
			if math.Abs(num-p.Grad.Data[i]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("%s[%d]: analytic %v numeric %v", p.Name, i, p.Grad.Data[i], num)
			}
		}
	}
}

func TestLSTMInputGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLSTM(2, 3, rng)
	seqLen := 3
	seq := make([]*mat.Matrix, seqLen)
	for s := range seq {
		seq[s] = mat.New(1, 2)
		for i := range seq[s].Data {
			seq[s].Data[i] = rng.NormFloat64()
		}
	}
	y := []int{0}
	ls := &LogSoftmax{}
	loss := func() float64 {
		out := ls.Forward(l.Forward(seq)[seqLen-1])
		v, _ := NLLLoss(out, y)
		return v
	}
	out := ls.Forward(l.Forward(seq)[seqLen-1])
	_, grad := NLLLoss(out, y)
	ZeroGrads(l.Params())
	dOut := make([]*mat.Matrix, seqLen)
	dOut[seqLen-1] = ls.Backward(grad)
	dxs := l.Backward(dOut)

	for s := 0; s < seqLen; s++ {
		for i := range seq[s].Data {
			num := numericalGrad(loss, seq[s].Data, i)
			if math.Abs(num-dxs[s].Data[i]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("dX[%d][%d]: analytic %v numeric %v", s, i, dxs[s].Data[i], num)
			}
		}
	}
}

func TestConvGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewConv1D(2, 3, 3, 2, rng)
	seqLen := 7
	seq := make([]*mat.Matrix, seqLen)
	for s := range seq {
		seq[s] = mat.New(2, 2)
		for i := range seq[s].Data {
			seq[s].Data[i] = rng.NormFloat64()
		}
	}
	y := []int{0, 1}
	dense := NewDense(3, 2, rng)
	ls := &LogSoftmax{}

	loss := func() float64 {
		outs := c.Forward(seq)
		// Sum conv outputs over time, classify the pooled vector.
		pooled := mat.New(2, 3)
		for _, o := range outs {
			if err := pooled.Add(o); err != nil {
				panic(err)
			}
		}
		out := ls.Forward(dense.Forward(pooled))
		v, _ := NLLLoss(out, y)
		return v
	}

	outs := c.Forward(seq)
	pooled := mat.New(2, 3)
	for _, o := range outs {
		if err := pooled.Add(o); err != nil {
			t.Fatal(err)
		}
	}
	out := ls.Forward(dense.Forward(pooled))
	_, grad := NLLLoss(out, y)
	ZeroGrads(c.Params())
	ZeroGrads(dense.Params())
	gPooled := dense.Backward(ls.Backward(grad))
	dOuts := make([]*mat.Matrix, len(outs))
	for i := range dOuts {
		dOuts[i] = gPooled
	}
	c.Backward(dOuts)

	for _, p := range c.Params() {
		for i := range p.W.Data {
			num := numericalGrad(loss, p.W.Data, i)
			if math.Abs(num-p.Grad.Data[i]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("%s[%d]: analytic %v numeric %v", p.Name, i, p.Grad.Data[i], num)
			}
		}
	}
}

func TestLogSoftmaxRowsNormalise(t *testing.T) {
	ls := &LogSoftmax{}
	x, _ := mat.FromRows([][]float64{{1, 2, 3}, {-5, 0, 5}})
	out := ls.Forward(x)
	for i := 0; i < out.Rows; i++ {
		var sum float64
		for _, v := range out.Row(i) {
			sum += math.Exp(v)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("row %d probabilities sum to %v", i, sum)
		}
	}
}

func TestNLLLoss(t *testing.T) {
	lp, _ := mat.FromRows([][]float64{{math.Log(0.5), math.Log(0.5)}})
	loss, grad := NLLLoss(lp, []int{0})
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Errorf("loss = %v, want ln 2", loss)
	}
	if grad.At(0, 0) != -1 || grad.At(0, 1) != 0 {
		t.Errorf("grad = %v", grad)
	}
}

func TestDropoutTrainEval(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := NewDropout(0.5, rng)
	x := mat.New(10, 100)
	for i := range x.Data {
		x.Data[i] = 1
	}
	evalOut := d.Forward(x, false)
	if !mat.Equal(evalOut, x, 0) {
		t.Error("dropout must be identity at eval time")
	}
	trainOut := d.Forward(x, true)
	zeros := 0
	var sum float64
	for _, v := range trainOut.Data {
		if v == 0 {
			zeros++
		}
		sum += v
	}
	if zeros < 300 || zeros > 700 {
		t.Errorf("dropout zeroed %d/1000", zeros)
	}
	// Inverted dropout keeps the expectation ≈ 1.
	if mean := sum / 1000; math.Abs(mean-1) > 0.15 {
		t.Errorf("dropout output mean %v, want ≈1", mean)
	}
}

func TestLeakyReLU(t *testing.T) {
	l := NewLeakyReLU(0.1)
	x, _ := mat.FromRows([][]float64{{-2, 3}})
	out := l.Forward(x)
	if out.At(0, 0) != -0.2 || out.At(0, 1) != 3 {
		t.Errorf("leaky relu = %v", out)
	}
	g, _ := mat.FromRows([][]float64{{1, 1}})
	dx := l.Backward(g)
	if dx.At(0, 0) != 0.1 || dx.At(0, 1) != 1 {
		t.Errorf("leaky relu grad = %v", dx)
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	p := NewMaxPool1D(2, 2)
	seq := []*mat.Matrix{}
	vals := []float64{1, 5, 3, 2}
	for _, v := range vals {
		m := mat.New(1, 1)
		m.Set(0, 0, v)
		seq = append(seq, m)
	}
	out := p.Forward(seq)
	if len(out) != 2 || out[0].At(0, 0) != 5 || out[1].At(0, 0) != 3 {
		t.Fatalf("pool out = %v", out)
	}
	g := []*mat.Matrix{mat.New(1, 1), mat.New(1, 1)}
	g[0].Set(0, 0, 1)
	g[1].Set(0, 0, 2)
	dx := p.Backward(g)
	want := []float64{0, 1, 2, 0}
	for i, w := range want {
		if dx[i].At(0, 0) != w {
			t.Errorf("pool grad[%d] = %v, want %v", i, dx[i].At(0, 0), w)
		}
	}
}

func TestCyclicalCosineLR(t *testing.T) {
	s := NewCyclicalCosineLR(0.001, 0.01, 10)
	if math.Abs(s.At(0)-0.01) > 1e-12 {
		t.Errorf("cycle start lr = %v, want max", s.At(0))
	}
	// Just before restart the rate is near min; at restart it jumps back.
	if s.At(9) > 0.0015 {
		t.Errorf("end of cycle lr = %v, want near min", s.At(9))
	}
	if math.Abs(s.At(10)-0.01) > 1e-12 {
		t.Errorf("restart lr = %v, want max", s.At(10))
	}
	// Monotone decrease within a cycle.
	for i := 1; i < 10; i++ {
		if s.At(i) > s.At(i-1) {
			t.Errorf("lr increased within cycle at %d", i)
		}
	}
}

func TestAdamConvergesQuadratic(t *testing.T) {
	// Minimise (w-3)² with Adam.
	p := newParam("w", 1, 1)
	p.W.Set(0, 0, -4)
	opt := NewAdam()
	for i := 0; i < 2000; i++ {
		w := p.W.At(0, 0)
		p.Grad.Set(0, 0, 2*(w-3))
		opt.Step([]*Param{p}, 0.05)
	}
	if math.Abs(p.W.At(0, 0)-3) > 0.01 {
		t.Errorf("Adam converged to %v, want 3", p.W.At(0, 0))
	}
}

func TestClipGradNorm(t *testing.T) {
	p := newParam("w", 1, 2)
	p.Grad.Data[0] = 3
	p.Grad.Data[1] = 4
	norm := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Errorf("pre-clip norm %v", norm)
	}
	if math.Abs(mat.Norm2(p.Grad.Data)-1) > 1e-12 {
		t.Errorf("post-clip norm %v", mat.Norm2(p.Grad.Data))
	}
	// Norm below the cap must be untouched.
	p.Grad.Data[0], p.Grad.Data[1] = 0.3, 0.4
	ClipGradNorm([]*Param{p}, 1)
	if p.Grad.Data[0] != 0.3 {
		t.Error("clip modified in-bounds gradient")
	}
}

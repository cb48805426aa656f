// Package dataset builds and manipulates the Workload Classification
// Challenge datasets: 60-second, 540-sample, 7-sensor GPU windows extracted
// from labelled jobs, split 80/20 into train and test sets (the paper's
// Table IV), and serialised in the challenge's .npz layout.
package dataset

import (
	"fmt"

	"repro/internal/mat"
)

// Tensor3 is a dense (trials × samples × sensors) array stored as float32,
// matching the challenge files and halving memory for full-scale builds.
type Tensor3 struct {
	N, T, C int
	Data    []float32
}

// NewTensor3 allocates a zeroed tensor.
func NewTensor3(n, t, c int) *Tensor3 {
	return &Tensor3{N: n, T: t, C: c, Data: make([]float32, n*t*c)}
}

// Dims returns the tensor shape; with At it satisfies nn.SeqSource.
func (x *Tensor3) Dims() (n, t, c int) { return x.N, x.T, x.C }

// At returns element (i, t, c).
func (x *Tensor3) At(i, t, c int) float64 {
	return float64(x.Data[(i*x.T+t)*x.C+c])
}

// Set assigns element (i, t, c).
func (x *Tensor3) Set(i, t, c int, v float64) {
	x.Data[(i*x.T+t)*x.C+c] = float32(v)
}

// SetTrial copies a samples×sensors matrix into trial i.
func (x *Tensor3) SetTrial(i int, m *mat.Matrix) error {
	if m.Rows != x.T || m.Cols != x.C {
		return fmt.Errorf("dataset: trial shape %dx%d, want %dx%d", m.Rows, m.Cols, x.T, x.C)
	}
	base := i * x.T * x.C
	for k, v := range m.Data {
		x.Data[base+k] = float32(v)
	}
	return nil
}

// Flatten returns the tensor reshaped to N×(T·C) float64, the layout used
// before standardisation and PCA (the paper reshapes each trial to R^3780).
func (x *Tensor3) Flatten() *mat.Matrix {
	m := mat.New(x.N, x.T*x.C)
	for k, v := range x.Data {
		m.Data[k] = float64(v)
	}
	return m
}

// Downsample returns a new tensor keeping every stride-th sample of each
// trial — the sequence-length reduction used by the scaled RNN presets.
func (x *Tensor3) Downsample(stride int) *Tensor3 {
	if stride <= 1 {
		out := NewTensor3(x.N, x.T, x.C)
		copy(out.Data, x.Data)
		return out
	}
	nt := (x.T + stride - 1) / stride
	out := NewTensor3(x.N, nt, x.C)
	for i := 0; i < x.N; i++ {
		for t, tt := 0, 0; t < x.T; t, tt = t+stride, tt+1 {
			for c := 0; c < x.C; c++ {
				out.Set(i, tt, c, x.At(i, t, c))
			}
		}
	}
	return out
}

// SelectTrials gathers the given trial indices into a new tensor.
func (x *Tensor3) SelectTrials(idx []int) *Tensor3 {
	out := NewTensor3(len(idx), x.T, x.C)
	stride := x.T * x.C
	for k, i := range idx {
		copy(out.Data[k*stride:(k+1)*stride], x.Data[i*stride:(i+1)*stride])
	}
	return out
}

package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/mat"
)

// SequenceClassifier is the contract shared by the Section V architectures:
// a batch of sequences in, per-class log-probabilities out.
type SequenceClassifier interface {
	Forward(seq []*mat.Matrix, train bool) *mat.Matrix
	Backward(grad *mat.Matrix)
	Params() []*Param
	Name() string
}

// seqLeakyReLU applies LeakyReLU independently at every timestep.
type seqLeakyReLU struct {
	alpha float64
	steps []*LeakyReLU
}

func newSeqLeakyReLU(alpha float64) *seqLeakyReLU { return &seqLeakyReLU{alpha: alpha} }

func (s *seqLeakyReLU) Forward(seq []*mat.Matrix) []*mat.Matrix {
	s.steps = make([]*LeakyReLU, len(seq))
	outs := make([]*mat.Matrix, len(seq))
	for t, m := range seq {
		s.steps[t] = NewLeakyReLU(s.alpha)
		outs[t] = s.steps[t].Forward(m)
	}
	return outs
}

func (s *seqLeakyReLU) Backward(dOuts []*mat.Matrix) []*mat.Matrix {
	dxs := make([]*mat.Matrix, len(dOuts))
	for t, g := range dOuts {
		dxs[t] = s.steps[t].Backward(g)
	}
	return dxs
}

// seqDropout applies dropout with independent masks at every timestep,
// matching PyTorch's inter-layer LSTM dropout.
type seqDropout struct {
	p     float64
	rng   *rand.Rand
	steps []*Dropout
}

func newSeqDropout(p float64, rng *rand.Rand) *seqDropout { return &seqDropout{p: p, rng: rng} }

func (s *seqDropout) Forward(seq []*mat.Matrix, train bool) []*mat.Matrix {
	s.steps = make([]*Dropout, len(seq))
	outs := make([]*mat.Matrix, len(seq))
	for t, m := range seq {
		s.steps[t] = NewDropout(s.p, s.rng)
		outs[t] = s.steps[t].Forward(m, train)
	}
	return outs
}

func (s *seqDropout) Backward(dOuts []*mat.Matrix) []*mat.Matrix {
	dxs := make([]*mat.Matrix, len(dOuts))
	for t, g := range dOuts {
		dxs[t] = s.steps[t].Backward(g)
	}
	return dxs
}

// head is the paper's shared classification head: the concatenated final
// hidden states pass through a fully-connected layer projecting to the
// sequence length, dropout p=0.5, leaky ReLU, a second fully-connected
// layer to the class count, and log-softmax.
type head struct {
	fc1     *Dense
	drop    *Dropout
	act     *LeakyReLU
	fc2     *Dense
	logsoft *LogSoftmax
}

func newHead(in, seqLen, numClasses int, rng *rand.Rand) *head {
	return &head{
		fc1:     NewDense(in, seqLen, rng),
		drop:    NewDropout(0.5, rng),
		act:     NewLeakyReLU(0.01),
		fc2:     NewDense(seqLen, numClasses, rng),
		logsoft: &LogSoftmax{},
	}
}

func (h *head) forward(x *mat.Matrix, train bool) *mat.Matrix {
	z := h.fc1.Forward(x)
	z = h.drop.Forward(z, train)
	z = h.act.Forward(z)
	z = h.fc2.Forward(z)
	return h.logsoft.Forward(z)
}

func (h *head) backward(grad *mat.Matrix) *mat.Matrix {
	g := h.logsoft.Backward(grad)
	g = h.fc2.Backward(g)
	g = h.act.Backward(g)
	g = h.drop.Backward(g)
	return h.fc1.Backward(g)
}

func (h *head) params() []*Param {
	return append(h.fc1.Params(), h.fc2.Params()...)
}

// BiLSTMClassifier is the paper's LSTM baseline: a (optionally stacked)
// bidirectional LSTM followed by the shared head. With Layers=2 a dropout
// layer with p=0.5 sits between the stacked BiLSTMs, exactly as described.
type BiLSTMClassifier struct {
	name   string
	layers []*BiLSTM
	drops  []*seqDropout
	head   *head
}

// NewBiLSTMClassifier builds the architecture. layers must be 1 or 2 (the
// paper evaluates both).
func NewBiLSTMClassifier(inCh, hidden, seqLen, numClasses, layers int, seed int64) (*BiLSTMClassifier, error) {
	if layers < 1 || layers > 2 {
		return nil, fmt.Errorf("nn: BiLSTM layers must be 1 or 2, got %d", layers)
	}
	rng := rand.New(rand.NewSource(seed))
	m := &BiLSTMClassifier{
		name: fmt.Sprintf("LSTM (h=%d%s)", hidden, map[bool]string{true: ", 2-layer", false: ""}[layers == 2]),
	}
	in := inCh
	for l := 0; l < layers; l++ {
		m.layers = append(m.layers, NewBiLSTM(in, hidden, rng))
		in = 2 * hidden
		if l < layers-1 {
			m.drops = append(m.drops, newSeqDropout(0.5, rng))
		}
	}
	m.head = newHead(2*hidden, seqLen, numClasses, rng)
	return m, nil
}

// Name identifies the model in tables.
func (m *BiLSTMClassifier) Name() string { return m.name }

// Forward returns log-probabilities for the batch.
func (m *BiLSTMClassifier) Forward(seq []*mat.Matrix, train bool) *mat.Matrix {
	cur := seq
	for l := 0; l < len(m.layers)-1; l++ {
		cur = m.layers[l].ForwardSeq(cur)
		cur = m.drops[l].Forward(cur, train)
	}
	last := m.layers[len(m.layers)-1]
	return m.head.forward(last.Final(last.ForwardSeq(cur)), train)
}

// Backward propagates the loss gradient through the whole network.
func (m *BiLSTMClassifier) Backward(grad *mat.Matrix) {
	last := m.layers[len(m.layers)-1]
	dSeq := last.BackwardSeq(last.FinalGrad(m.head.backward(grad)))
	for l := len(m.layers) - 2; l >= 0; l-- {
		dSeq = m.drops[l].Backward(dSeq)
		dSeq = m.layers[l].BackwardSeq(dSeq)
	}
}

// Params returns all trainables.
func (m *BiLSTMClassifier) Params() []*Param {
	var ps []*Param
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	return append(ps, m.head.params()...)
}

// CNNLSTMClassifier is the paper's CNN-LSTM: two 1-D convolutional layers
// sandwiching a max-pooling layer (each conv followed by a leaky ReLU),
// feeding the same bidirectional-LSTM architecture and head. The standard
// variant reduces the sequence ~8×; SmallKernel reduces it only ~2× (the
// paper's "smaller kernel and step size" model).
type CNNLSTMClassifier struct {
	name  string
	conv1 *Conv1D
	act1  *seqLeakyReLU
	pool  *MaxPool1D
	conv2 *Conv1D
	act2  *seqLeakyReLU
	rnn   *BiLSTM
	head  *head
}

// CNNLSTMOptions selects the variant.
type CNNLSTMOptions struct {
	Hidden      int
	SmallKernel bool
	Seed        int64
}

// NewCNNLSTMClassifier builds the architecture for the given input shape.
func NewCNNLSTMClassifier(inCh, seqLen, numClasses int, opt CNNLSTMOptions) (*CNNLSTMClassifier, error) {
	rng := rand.New(rand.NewSource(opt.Seed))
	kernel, stride := 5, 2
	label := fmt.Sprintf("CNN-LSTM (h=%d)", opt.Hidden)
	if opt.SmallKernel {
		kernel, stride = 3, 1
		label = fmt.Sprintf("CNN-LSTM (h=%d, small kernel)", opt.Hidden)
	}
	m := &CNNLSTMClassifier{
		name:  label,
		conv1: NewConv1D(inCh, 32, kernel, stride, rng),
		act1:  newSeqLeakyReLU(0.01),
		pool:  NewMaxPool1D(2, 2),
		conv2: NewConv1D(32, 64, kernel, stride, rng),
		act2:  newSeqLeakyReLU(0.01),
	}
	t1 := m.conv1.OutLen(seqLen)
	t2 := m.pool.OutLen(t1)
	t3 := m.conv2.OutLen(t2)
	if t3 < 1 {
		return nil, fmt.Errorf("nn: sequence length %d too short for the CNN front-end", seqLen)
	}
	m.rnn = NewBiLSTM(64, opt.Hidden, rng)
	// The head projects to the *input* sequence length, as the paper
	// specifies for all its models ("a feature size equal to the length of
	// the sequence"); using the conv-reduced length here would bottleneck
	// the classifier when sequences are short.
	m.head = newHead(2*opt.Hidden, seqLen, numClasses, rng)
	return m, nil
}

// Name identifies the model in tables.
func (m *CNNLSTMClassifier) Name() string { return m.name }

// Forward returns log-probabilities for the batch.
func (m *CNNLSTMClassifier) Forward(seq []*mat.Matrix, train bool) *mat.Matrix {
	z := m.conv1.Forward(seq)
	z = m.act1.Forward(z)
	z = m.pool.Forward(z)
	z = m.conv2.Forward(z)
	z = m.act2.Forward(z)
	return m.head.forward(m.rnn.Final(m.rnn.ForwardSeq(z)), train)
}

// Backward propagates the loss gradient through the whole network.
func (m *CNNLSTMClassifier) Backward(grad *mat.Matrix) {
	dSeq := m.rnn.BackwardSeq(m.rnn.FinalGrad(m.head.backward(grad)))
	dSeq = m.act2.Backward(dSeq)
	dSeq = m.conv2.Backward(dSeq)
	dSeq = m.pool.Backward(dSeq)
	dSeq = m.act1.Backward(dSeq)
	m.conv1.Backward(dSeq)
}

// Params returns all trainables.
func (m *CNNLSTMClassifier) Params() []*Param {
	ps := append(m.conv1.Params(), m.conv2.Params()...)
	ps = append(ps, m.rnn.Params()...)
	return append(ps, m.head.params()...)
}

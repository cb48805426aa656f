package adapt

import (
	"sort"

	"repro/internal/drift"
	"repro/internal/fleet"
	"repro/internal/mat"
	"repro/internal/stream"
)

// shadowState scores the candidate model side-by-side with the serving
// model on live traffic: every observed window is re-scored by the
// candidate (one single-row inference — bounded pure compute, per the
// fleet.Observer contract) and compared with the serving verdict the tick
// just published. It accumulates the evidence the promotion gate reads:
// per-class agreement on serving-accepted windows and both models' unknown
// rates. Guarded by the Manager's mutex.
type shadowState struct {
	model stream.Classifier
	cal   *drift.Calibration
	row   *mat.Matrix // reusable 1×F input for single-row inference

	windows         uint64 // observed windows scored by both models
	compared        uint64 // windows the serving model accepted (agreement denominator)
	agreed          uint64 // compared windows where the candidate kept the class
	servingRejected uint64
	candRejected    uint64
	perClass        map[int]*classAgreement // keyed by serving class
	errs            uint64
	lastErr         string
}

type classAgreement struct {
	windows uint64
	agreed  uint64
}

func newShadowState(model stream.Classifier, cal *drift.Calibration, dim int) *shadowState {
	return &shadowState{
		model:    model,
		cal:      cal,
		row:      mat.New(1, dim),
		perClass: make(map[int]*classAgreement),
	}
}

// score runs the candidate on one observed window and tallies the verdict
// pair. Callers hold the Manager's mutex.
func (s *shadowState) score(o fleet.Observation) {
	copy(s.row.Data, o.Features)
	probs, err := s.model.PredictProba(s.row)
	if err != nil || probs.Rows != 1 {
		s.errs++
		if err != nil {
			s.lastErr = err.Error()
		}
		return
	}
	candClass := mat.ArgMax(probs.Row(0))
	candRejected := false
	if s.cal != nil {
		candRejected = s.cal.Threshold.Reject(s.cal.Score(nil, o.Features))
	}

	s.windows++
	if o.Rejected {
		s.servingRejected++
	}
	if candRejected {
		s.candRejected++
	}
	if !o.Rejected {
		// Agreement is judged only where the serving model committed to a
		// class; a candidate that rejects such a window disagrees.
		s.compared++
		ca := s.perClass[o.Class]
		if ca == nil {
			ca = &classAgreement{}
			s.perClass[o.Class] = ca
		}
		ca.windows++
		if !candRejected && candClass == o.Class {
			s.agreed++
			ca.agreed++
		}
	}
}

// ShadowStats is the read surface of one shadow comparison, served on
// /v1/adapt and /metrics.
type ShadowStats struct {
	// Windows counts live windows scored by both models; Compared is the
	// agreement denominator (serving-accepted windows) and Agreed the
	// windows where the candidate kept the serving class.
	Windows  uint64 `json:"windows"`
	Compared uint64 `json:"compared"`
	Agreed   uint64 `json:"agreed"`
	// Agreement is Agreed/Compared (0 until anything compared).
	Agreement float64 `json:"agreement"`
	// ServingUnknownRate and CandidateUnknownRate are each model's rejected
	// fraction of Windows — the unknown-rate delta the flywheel exists to
	// close.
	ServingUnknownRate   float64 `json:"serving_unknown_rate"`
	CandidateUnknownRate float64 `json:"candidate_unknown_rate"`
	// PerClass breaks agreement down by serving class, ascending.
	PerClass []ClassAgreement `json:"per_class,omitempty"`
	// Errors counts candidate inference failures (never fatal to serving).
	Errors uint64 `json:"errors,omitempty"`
}

// ClassAgreement is one serving class's row in ShadowStats.
type ClassAgreement struct {
	Class   int     `json:"class"`
	Windows uint64  `json:"windows"`
	Agreed  uint64  `json:"agreed"`
	Rate    float64 `json:"rate"`
}

// stats snapshots the tallies. Callers hold the Manager's mutex.
func (s *shadowState) stats() ShadowStats {
	st := ShadowStats{
		Windows:  s.windows,
		Compared: s.compared,
		Agreed:   s.agreed,
		Errors:   s.errs,
	}
	if s.compared > 0 {
		st.Agreement = float64(s.agreed) / float64(s.compared)
	}
	if s.windows > 0 {
		st.ServingUnknownRate = float64(s.servingRejected) / float64(s.windows)
		st.CandidateUnknownRate = float64(s.candRejected) / float64(s.windows)
	}
	classes := make([]int, 0, len(s.perClass))
	for c := range s.perClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	for _, c := range classes {
		ca := s.perClass[c]
		row := ClassAgreement{Class: c, Windows: ca.windows, Agreed: ca.agreed}
		if ca.windows > 0 {
			row.Rate = float64(ca.agreed) / float64(ca.windows)
		}
		st.PerClass = append(st.PerClass, row)
	}
	return st
}

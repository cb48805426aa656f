package server

import (
	"bytes"
	"errors"
	"net/http"

	"repro/internal/adapt"
)

// adaptStatusResponse wraps the manager's status with an enabled flag so
// GET /v1/adapt has a stable shape whether or not the flywheel is wired:
// the routes are always registered, and a server without a manager answers
// {"enabled":false} instead of 404.
type adaptStatusResponse struct {
	Enabled bool `json:"enabled"`
	adapt.Status
}

// ClassNames returns the current class-index → workload-name mapping.
func (s *Server) ClassNames() []string {
	s.namesMu.RLock()
	defer s.namesMu.RUnlock()
	return s.classNames
}

// handleAdapt serves the flywheel's lifecycle status.
func (s *Server) handleAdapt(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Adapt == nil {
		writeJSON(w, http.StatusOK, adaptStatusResponse{Enabled: false})
		return
	}
	writeJSON(w, http.StatusOK, adaptStatusResponse{Enabled: true, Status: s.cfg.Adapt.Status()})
}

// handleAdaptFamilies serves the clustered rejected-window families as the
// portable JSON bundle wcctrain -families consumes, so an operator can pull
// candidate classes out of a serving node and retrain offline.
func (s *Server) handleAdaptFamilies(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Adapt == nil {
		writeError(w, http.StatusNotFound, "adapt flywheel not enabled")
		return
	}
	fams := s.cfg.Adapt.Families()
	if len(fams) == 0 {
		writeError(w, http.StatusNotFound, "no candidate families yet")
		return
	}
	var buf bytes.Buffer
	if err := adapt.EncodeFamilies(&buf, fams); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// adaptAction is the handler for an operator action on the flywheel: 404
// without a manager, the action's error mapped by adaptErrCode, otherwise
// the status the action left behind. The three actions are
//
//   - build: force a cluster+train pass now. It runs synchronously in the
//     request (seconds for a provenance retrain), which is exactly what CI
//     smokes want: when the response comes back the candidate either exists
//     or the error explains why;
//   - promote: promote the shadow candidate unconditionally — the operator
//     override of the quality gate. Automatic promotion goes through the gate
//     instead (Config.AutoPromote on the manager);
//   - abort: discard the candidate and the buffered windows behind it,
//     restarting the flywheel from an empty buffer.
func (s *Server) adaptAction(act func(*adapt.Manager) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.Adapt == nil {
			writeError(w, http.StatusNotFound, "adapt flywheel not enabled")
			return
		}
		if err := act(s.cfg.Adapt); err != nil {
			writeError(w, adaptErrCode(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, adaptStatusResponse{Enabled: true, Status: s.cfg.Adapt.Status()})
	}
}

// adaptErrCode maps flywheel lifecycle errors to HTTP codes: state-machine
// refusals are 409 (retryable once the state moves), everything else 500.
func adaptErrCode(err error) int {
	switch {
	case errors.Is(err, adapt.ErrNotReady),
		errors.Is(err, adapt.ErrNoFamilies),
		errors.Is(err, adapt.ErrNoCandidate),
		errors.Is(err, adapt.ErrBusy),
		errors.Is(err, adapt.ErrStale),
		errors.Is(err, adapt.ErrGate):
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

package service

import (
	"fmt"
	"net/http"

	"repro/internal/obs"
)

// handleTraceGet serves GET /debug/traces/{id}: every retained record
// for the trace id, oldest first.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	recs := s.exporter.Get(id)
	if len(recs) == 0 {
		WriteTraceNotFound(w, id)
		return
	}
	obs.WriteTraceJSON(w, http.StatusOK, obs.TraceLookup{TraceID: id, Records: recs})
}

// WriteTraceNotFound writes the 404 that both tiers send for a trace id
// they hold no record of, indented like every /debug/traces body.
func WriteTraceNotFound(w http.ResponseWriter, id string) {
	obs.WriteTraceJSON(w, CodeNotFound.Status(), ErrorResponse{Error: ErrorBody{
		Code:    CodeNotFound,
		Message: fmt.Sprintf("no retained trace %q", id),
	}})
}

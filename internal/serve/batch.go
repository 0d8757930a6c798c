package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/wideleak"
)

// Batch API: POST /v1/batches plans a slice of RunSpecs as one
// deduplicated cell matrix and executes it through the shared cell
// cache, so overlapping specs (same world, overlapping probes or
// profiles) pay for their union once instead of N full runs. A batch is
// a Job like a study: it waits in the same bounded queue (a full queue
// sheds it with 429) and runs on the same workers. Rows stream out as
// cells complete:
//
//	POST   /v1/batches                    submit {specs: [RunSpec, ...], concurrency}
//	GET    /v1/batches                    list batches, newest first
//	GET    /v1/batches/{id}               batch status + sharing stats
//	DELETE /v1/batches/{id}               cancel a queued or running batch
//	GET    /v1/batches/{id}/rows          completed rows (?stream=1 for SSE)
//	GET    /v1/batches/{id}/tables/{spec} one spec's table (?format=txt|csv|json)

// BatchRow is the wire shape of one completed batch row: which spec and
// app it belongs to, a monotonically increasing per-batch sequence
// stamp, and the rendered cells (or the transport annotation). The
// fleet router relays the same shape with its own Seq and spec indexes.
type BatchRow struct {
	Seq    int64    `json:"seq"`
	Spec   int      `json:"spec"`
	App    string   `json:"app"`
	Err    string   `json:"error,omitempty"`
	Probes []string `json:"probes,omitempty"`
	Cells  []string `json:"cells,omitempty"`
}

// renderRow flattens one assembled row to the wire shape.
func renderRow(specIdx int, row wideleak.Row) BatchRow {
	out := BatchRow{Spec: specIdx, App: row.App, Err: row.Err, Probes: row.Probes}
	if row.Failed() {
		return out
	}
	for _, id := range row.Probes {
		if res := row.Result(id); res != nil {
			out.Cells = append(out.Cells, res.Cells()...)
		}
	}
	return out
}

// submitBatchResponse is the wire shape of POST /v1/batches.
type submitBatchResponse struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Specs     int      `json:"specs"`
	StatusURL string   `json:"status_url"`
	RowsURL   string   `json:"rows_url"`
}

func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Specs       []wideleak.RunSpec `json:"specs"`
		Concurrency int                `json:"concurrency,omitempty"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if len(req.Specs) == 0 {
		writeError(w, http.StatusBadRequest, "batch needs at least one spec")
		return
	}
	specs := make([]wideleak.RunSpec, len(req.Specs))
	for i, spec := range req.Specs {
		c, err := spec.Canonicalize()
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("spec %d: %v", i, err))
			return
		}
		specs[i] = c
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	batch := s.newJobLocked(specs, "", true)
	batch.concurrency = req.Concurrency
	if !s.enqueueLocked(batch) {
		s.mu.Unlock()
		shed(w)
		return
	}
	s.mu.Unlock()

	w.Header().Set("Location", batch.url())
	writeJSON(w, http.StatusAccepted, submitBatchResponse{
		ID:        batch.ID,
		State:     batch.State(),
		Specs:     len(specs),
		StatusURL: batch.url(),
		RowsURL:   batch.url() + "/rows",
	})
}

package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/serve"
	"repro/internal/wideleak"
)

// Batch fan-out: the router accepts the same POST /v1/batches the
// daemon does, partitions the specs by world key across the ring (each
// spec runs on the replica owning its world, where that world's cells,
// snapshot and key pool are warm), submits one sub-batch per replica,
// and merges status, rows and tables back under fleet-level spec
// indexes. Routed this way, a fleet-wide batch gets the same cell
// sharing a single daemon would give co-world specs, without ever
// duplicating a world across replicas.

// remoteBatchSubmit is the slice of the daemon's batch-submit response
// the router needs.
type remoteBatchSubmit struct {
	ID string `json:"id"`
}

// remoteBatchStatus is the slice of the daemon's batch status document
// the router merges.
type remoteBatchStatus struct {
	State    string              `json:"state"`
	Error    string              `json:"error,omitempty"`
	RowsDone int                 `json:"rows_done"`
	Stats    wideleak.BatchStats `json:"stats,omitempty"`
	WallMS   int64               `json:"wall_ms,omitempty"`
}

// fleetBatchStatus is the router's merged status document.
type fleetBatchStatus struct {
	ID       string              `json:"id"`
	State    string              `json:"state"`
	Error    string              `json:"error,omitempty"`
	Specs    []wideleak.RunSpec  `json:"specs"`
	RowsDone int                 `json:"rows_done"`
	Stats    wideleak.BatchStats `json:"stats,omitempty"`
	Parts    []fleetBatchPartDoc `json:"parts"`
	RowsURL  string              `json:"rows_url"`
}

// fleetBatchPartDoc documents one partition in the merged status.
type fleetBatchPartDoc struct {
	Replica string `json:"replica"`
	BatchID string `json:"batch_id"`
	Specs   []int  `json:"specs"` // fleet spec indexes living on this part
	State   string `json:"state"`
	Error   string `json:"error,omitempty"`
}

// batchTarget picks the replica a world key's specs should run on: the
// first healthy replica in ring-walk order (the owner when it is up).
func (rt *Router) batchTarget(worldKey string) *replica {
	for _, id := range rt.ring.sequence(worldKey) {
		if rep := rt.replica(id); rep != nil && rep.isHealthy() {
			return rep
		}
	}
	return nil
}

func (rt *Router) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
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

	// Canonicalize and partition by the world's routed replica.
	type partition struct {
		rep     *replica
		specs   []wideleak.RunSpec
		specIdx []int
	}
	specs := make([]wideleak.RunSpec, len(req.Specs))
	parts := make(map[string]*partition)
	var order []string // replica IDs in first-touch order (deterministic fan-out)
	for i, spec := range req.Specs {
		c, err := spec.Canonicalize()
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("spec %d: %v", i, err))
			return
		}
		specs[i] = c
		worldKey, err := c.WorldKey()
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("spec %d: %v", i, err))
			return
		}
		rep := rt.batchTarget(worldKey)
		if rep == nil {
			rt.metrics.addUnroutable()
			writeError(w, http.StatusServiceUnavailable, "no healthy replica")
			return
		}
		p := parts[rep.id]
		if p == nil {
			p = &partition{rep: rep}
			parts[rep.id] = p
			order = append(order, rep.id)
		}
		p.specs = append(p.specs, c)
		p.specIdx = append(p.specIdx, i)
	}

	// Submit one sub-batch per replica. A failed part cancels the ones
	// already placed — a fleet batch exists whole or not at all.
	batch := &record{batch: true, specs: specs}
	for _, id := range order {
		p := parts[id]
		body, err := json.Marshal(map[string]any{"specs": p.specs, "concurrency": req.Concurrency})
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		resp, err := rt.forward(r.Context(), p.rep, http.MethodPost, "/v1/batches", bytes.NewReader(body))
		if err != nil {
			rt.metrics.addProxyError(p.rep.id)
			rt.noteFailure(p.rep)
			rt.cancelParts(batch)
			writeError(w, http.StatusServiceUnavailable, fmt.Sprintf("replica %s: %v", p.rep.id, err))
			return
		}
		var remote remoteBatchSubmit
		decErr := json.NewDecoder(resp.Body).Decode(&remote)
		status := resp.StatusCode
		drainBody(resp)
		if status == http.StatusTooManyRequests {
			// The part's replica shed it: relay the shed so the client
			// backs off and retries the whole batch.
			rt.metrics.addReplicaShed(p.rep.id)
			rt.metrics.addShed()
			rt.cancelParts(batch)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, fmt.Sprintf("replica %s shed its sub-batch", p.rep.id))
			return
		}
		if status != http.StatusAccepted || decErr != nil || remote.ID == "" {
			rt.cancelParts(batch)
			writeError(w, http.StatusBadGateway, fmt.Sprintf("replica %s answered %d to sub-batch", p.rep.id, status))
			return
		}
		rt.metrics.addBatchPart(p.rep.id)
		batch.parts = append(batch.parts, &placement{
			replicaID: p.rep.id,
			remoteID:  remote.ID,
			specIdx:   p.specIdx,
		})
	}

	batch.specPart = make([]struct{ part, idx int }, len(specs))
	for pi, part := range batch.parts {
		for li, fi := range part.specIdx {
			batch.specPart[fi] = struct{ part, idx int }{pi, li}
		}
	}
	rt.retain(batch, "")
	rt.metrics.addBatch()

	w.Header().Set("Location", "/v1/batches/"+batch.id)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":         batch.id,
		"state":      "queued",
		"specs":      len(specs),
		"parts":      len(batch.parts),
		"status_url": "/v1/batches/" + batch.id,
		"rows_url":   "/v1/batches/" + batch.id + "/rows",
	})
}

// cancelParts best-effort cancels every sub-batch already placed.
func (rt *Router) cancelParts(batch *record) {
	for _, part := range batch.parts {
		rep := rt.replica(part.replicaID)
		if rep == nil {
			continue
		}
		req, err := http.NewRequest(http.MethodDelete, rep.base+"/v1/batches/"+part.remoteID, nil)
		if err != nil {
			continue
		}
		if resp, err := rt.client.Do(req); err == nil {
			drainBody(resp)
		}
	}
}

// partStatus fetches one sub-batch's status from its replica.
func (rt *Router) partStatus(r *http.Request, part *placement) (remoteBatchStatus, error) {
	rep := rt.replica(part.replicaID)
	if rep == nil {
		return remoteBatchStatus{}, fmt.Errorf("unknown replica %s", part.replicaID)
	}
	resp, err := rt.forward(r.Context(), rep, http.MethodGet, "/v1/batches/"+part.remoteID, nil)
	if err != nil {
		rt.metrics.addProxyError(rep.id)
		rt.noteFailure(rep)
		return remoteBatchStatus{}, err
	}
	defer drainBody(resp)
	if resp.StatusCode != http.StatusOK {
		return remoteBatchStatus{}, fmt.Errorf("replica %s answered %d", rep.id, resp.StatusCode)
	}
	var st remoteBatchStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return remoteBatchStatus{}, err
	}
	return st, nil
}

// mergeState folds part states into the batch's: any failure dominates,
// then any still-live part, then cancellation; only all-done is done.
func mergeState(states []string) string {
	anyLive, anyCanceled := false, false
	for _, st := range states {
		switch st {
		case "failed":
			return "failed"
		case "queued", "running":
			anyLive = true
		case "canceled":
			anyCanceled = true
		}
	}
	if anyLive {
		return "running"
	}
	if anyCanceled {
		return "canceled"
	}
	return "done"
}

func (rt *Router) handleBatchStatus(w http.ResponseWriter, r *http.Request) {
	batch := rt.lookup(w, r, true)
	if batch == nil {
		return
	}
	out := fleetBatchStatus{
		ID:      batch.id,
		Specs:   batch.specs,
		RowsURL: "/v1/batches/" + batch.id + "/rows",
	}
	states := make([]string, 0, len(batch.parts))
	var errs []string
	for _, part := range batch.parts {
		doc := fleetBatchPartDoc{Replica: part.replicaID, BatchID: part.remoteID, Specs: part.specIdx}
		st, err := rt.partStatus(r, part)
		if err != nil {
			doc.State, doc.Error = "failed", err.Error()
			errs = append(errs, fmt.Sprintf("%s: %v", part.replicaID, err))
		} else {
			doc.State, doc.Error = st.State, st.Error
			if st.Error != "" {
				errs = append(errs, fmt.Sprintf("%s: %s", part.replicaID, st.Error))
			}
			out.RowsDone += st.RowsDone
			out.Stats.Add(st.Stats)
		}
		states = append(states, doc.State)
		out.Parts = append(out.Parts, doc)
	}
	out.State = mergeState(states)
	batch.note(out.State)
	if out.State == "failed" {
		out.Error = strings.Join(errs, "; ")
	}
	writeJSON(w, http.StatusOK, out)
}

func (rt *Router) handleBatchCancel(w http.ResponseWriter, r *http.Request) {
	batch := rt.lookup(w, r, true)
	if batch == nil {
		return
	}
	rt.cancelParts(batch)
	writeJSON(w, http.StatusAccepted, map[string]any{"id": batch.id, "state": "canceling"})
}

// handleBatchTable proxies one fleet spec's table to the part that ran
// it, translating the fleet index to the replica's local one.
func (rt *Router) handleBatchTable(w http.ResponseWriter, r *http.Request) {
	batch := rt.lookup(w, r, true)
	if batch == nil {
		return
	}
	idx, err := strconv.Atoi(r.PathValue("spec"))
	if err != nil || idx < 0 || idx >= len(batch.specs) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("batch has specs 0..%d", len(batch.specs)-1))
		return
	}
	loc := batch.specPart[idx]
	part := batch.parts[loc.part]
	rep := rt.replica(part.replicaID)
	if rep == nil {
		writeError(w, http.StatusInternalServerError, "batch part mapped to unknown replica")
		return
	}
	path := fmt.Sprintf("/v1/batches/%s/tables/%d", part.remoteID, loc.idx)
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	resp, err := rt.forward(r.Context(), rep, http.MethodGet, path, nil)
	if err != nil {
		rt.metrics.addProxyError(rep.id)
		rt.noteFailure(rep)
		writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	relayResponse(w, resp, rep.id)
}

func (rt *Router) handleBatchRows(w http.ResponseWriter, r *http.Request) {
	batch := rt.lookup(w, r, true)
	if batch == nil {
		return
	}
	if r.URL.Query().Get("stream") != "" {
		rt.streamBatchRows(w, r, batch)
		return
	}
	// Merge each part's backlog: remap spec indexes, order by (part,
	// part-local seq), re-stamp fleet Seq.
	var merged []serve.BatchRow
	for pi, part := range batch.parts {
		rep := rt.replica(part.replicaID)
		if rep == nil {
			continue
		}
		resp, err := rt.forward(r.Context(), rep, http.MethodGet, "/v1/batches/"+part.remoteID+"/rows", nil)
		if err != nil {
			rt.metrics.addProxyError(rep.id)
			rt.noteFailure(rep)
			writeError(w, http.StatusBadGateway, fmt.Sprintf("replica %s: %v", rep.id, err))
			return
		}
		var rows []serve.BatchRow
		decErr := json.NewDecoder(resp.Body).Decode(&rows)
		drainBody(resp)
		if decErr != nil {
			writeError(w, http.StatusBadGateway, fmt.Sprintf("replica %s: %v", rep.id, decErr))
			return
		}
		for _, row := range rows {
			if row.Spec < 0 || row.Spec >= len(part.specIdx) {
				continue
			}
			row.Spec = part.specIdx[row.Spec]
			row.Seq = int64(pi)<<32 | row.Seq // sortable (part, local seq) key
			merged = append(merged, row)
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Seq < merged[j].Seq })
	for i := range merged {
		merged[i].Seq = int64(i + 1)
	}
	if merged == nil {
		merged = []serve.BatchRow{}
	}
	writeJSON(w, http.StatusOK, merged)
}

// streamBatchRows fans every part's SSE row stream into one: a reader
// goroutine per part parses frames and remaps spec indexes; the writer
// serializes them, re-stamping a fleet-level Seq (strictly ascending in
// delivery order), and closes with one merged `event: done`.
func (rt *Router) streamBatchRows(w http.ResponseWriter, r *http.Request, batch *record) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}

	// rowCh is buffered so part readers can run ahead of a client that
	// is briefly slow to take frames; doneCh takes one send per part.
	rowCh := make(chan serve.BatchRow, 64)
	doneCh := make(chan string, len(batch.parts))
	var wg sync.WaitGroup
	for _, part := range batch.parts {
		rep := rt.replica(part.replicaID)
		if rep == nil {
			doneCh <- "failed"
			continue
		}
		wg.Add(1)
		go func(part *placement, rep *replica) {
			defer wg.Done()
			state := "failed"
			defer func() { doneCh <- state }()
			resp, err := rt.forward(r.Context(), rep, http.MethodGet, "/v1/batches/"+part.remoteID+"/rows?stream=1", nil)
			if err != nil {
				rt.metrics.addProxyError(rep.id)
				return
			}
			defer resp.Body.Close()
			scanner := bufio.NewScanner(resp.Body)
			event := ""
			for scanner.Scan() {
				line := scanner.Text()
				switch {
				case strings.HasPrefix(line, "event: "):
					event = strings.TrimPrefix(line, "event: ")
				case strings.HasPrefix(line, "data: "):
					data := strings.TrimPrefix(line, "data: ")
					switch event {
					case "row":
						var row serve.BatchRow
						if json.Unmarshal([]byte(data), &row) != nil {
							return
						}
						if row.Spec < 0 || row.Spec >= len(part.specIdx) {
							continue
						}
						row.Spec = part.specIdx[row.Spec]
						select {
						case rowCh <- row:
						case <-r.Context().Done():
							return
						}
					case "done":
						var fin struct {
							State string `json:"state"`
						}
						if json.Unmarshal([]byte(data), &fin) == nil {
							state = fin.State
						}
						return
					}
				}
			}
		}(part, rep)
	}
	go func() {
		wg.Wait()
		close(rowCh)
	}()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	var seq int64
	for row := range rowCh {
		seq++
		row.Seq = seq
		data, err := json.Marshal(row)
		if err != nil {
			return
		}
		if _, err := fmt.Fprintf(w, "event: row\ndata: %s\n\n", data); err != nil {
			// Client gone: drain readers via their context and bail.
			for range rowCh {
			}
			return
		}
		flusher.Flush()
	}
	states := make([]string, 0, len(batch.parts))
	for range batch.parts {
		states = append(states, <-doneCh)
	}
	state := mergeState(states)
	batch.note(state)
	fmt.Fprintf(w, "event: done\ndata: {\"state\":%q}\n\n", state)
	flusher.Flush()
}

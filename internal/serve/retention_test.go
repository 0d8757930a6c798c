package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/wideleak"
)

// TestServer_RetentionBound is the soak for the record table: 20,000
// cache-hit submissions through Handler() leave at most maxRetained
// records, the retained gauge agrees, the listings stay within the cap,
// the oldest terminal records of both kinds answer 404 on every
// endpoint, and a live record older than all of them survives.
func TestServer_RetentionBound(t *testing.T) {
	srv, ts, release := newGatedServer(t, Config{Workers: 1, QueueSize: 2})

	primer := submit(t, ts, lifeSpec(), http.StatusAccepted)
	if st := waitTerminal(t, ts, primer.ID); st.State != JobDone {
		t.Fatalf("primer ended %s: %s", st.State, st.Error)
	}
	batch := submitBatch(t, ts, []wideleak.RunSpec{lifeSpec()}, http.StatusAccepted)
	if st := waitBatchTerminal(t, ts, batch.ID); st.State != JobDone {
		t.Fatalf("batch ended %s: %s", st.State, st.Error)
	}
	live := submit(t, ts, heldSpec(), http.StatusAccepted)
	waitInFlight(t, srv, 1)

	body, err := json.Marshal(lifeSpec())
	if err != nil {
		t.Fatal(err)
	}
	handler := srv.Handler()
	var firstHit string
	for i := 0; i < 20000; i++ {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/studies", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("submit %d = %d, want a 200 cache hit", i, rec.Code)
		}
		if i == 0 {
			var sub submitResponse
			json.Unmarshal(rec.Body.Bytes(), &sub)
			firstHit = sub.ID
		}
	}

	srv.mu.Lock()
	records := len(srv.jobs)
	srv.mu.Unlock()
	if records > maxRetained {
		t.Errorf("record table holds %d, cap is %d", records, maxRetained)
	}
	gauge, err := strconv.Atoi(counterValue(t, metricsText(t, ts), "wideleakd_jobs_retained"))
	if err != nil || gauge != records {
		t.Errorf("wideleakd_jobs_retained = %d (%v), want %d", gauge, err, records)
	}
	for _, path := range []string{"/v1/studies", "/v1/batches"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var listed []json.RawMessage
		err = json.NewDecoder(resp.Body).Decode(&listed)
		resp.Body.Close()
		if err != nil || len(listed) > maxRetained {
			t.Errorf("GET %s listed %d records (%v), cap is %d", path, len(listed), err, maxRetained)
		}
	}

	for _, path := range []string{
		"/v1/studies/" + primer.ID, "/v1/studies/" + primer.ID + "/table", "/v1/studies/" + primer.ID + "/events",
		"/v1/studies/" + firstHit, "/v1/studies/" + firstHit + "/table", "/v1/studies/" + firstHit + "/events",
		"/v1/batches/" + batch.ID, "/v1/batches/" + batch.ID + "/rows", "/v1/batches/" + batch.ID + "/tables/0",
	} {
		if got := do(t, http.MethodGet, ts.URL+path); got != http.StatusNotFound {
			t.Errorf("GET %s after eviction = %d, want 404", path, got)
		}
	}
	for _, path := range []string{"/v1/studies/" + primer.ID, "/v1/batches/" + batch.ID} {
		if got := do(t, http.MethodDelete, ts.URL+path); got != http.StatusNotFound {
			t.Errorf("DELETE %s after eviction = %d, want 404", path, got)
		}
	}

	if got := getStatus(t, ts, live.ID).State; got != JobRunning {
		t.Errorf("live record is %s after the soak, want running", got)
	}
	release()
	if st := waitTerminal(t, ts, live.ID); st.State != JobDone {
		t.Errorf("live record ended %s: %s", st.State, st.Error)
	}
}

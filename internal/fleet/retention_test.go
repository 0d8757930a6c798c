package fleet

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestRouter_RetentionBound is the router's counterpart of the daemon's
// retention soak: cache-hit submissions through Handler() leave at most
// maxRecords records, the oldest answer 404, and a study whose end the
// router never observed is kept as live.
func TestRouter_RetentionBound(t *testing.T) {
	f := startFleet(t, 1, serve.Config{Workers: 1})
	base := f.URL

	spec := `{"seed": "fleet-retention", "profiles": ["Showtime"], "probes": ["q2"]}`
	primer, _ := fleetSubmit(t, base, spec, http.StatusAccepted)
	waitFleetDone(t, base, primer.ID, 120*time.Second)
	live, _ := fleetSubmit(t, base, `{"seed": "fleet-retention", "profiles": ["Showtime"], "probes": ["q3"]}`, http.StatusAccepted)

	handler := f.Router.Handler()
	var firstHit string
	for i := 0; i < 2*maxRecords+1; i++ {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/studies", strings.NewReader(spec)))
		if rec.Code != http.StatusOK {
			t.Fatalf("submit %d = %d, want a 200 cache hit (body: %s)", i, rec.Code, rec.Body.String())
		}
		if i == 0 {
			var sub fleetSubmitResponse
			json.Unmarshal(rec.Body.Bytes(), &sub)
			firstHit = sub.ID
		}
	}

	f.Router.mu.Lock()
	records := len(f.Router.records)
	_, liveKept := f.Router.records[live.ID]
	f.Router.mu.Unlock()
	if records > maxRecords {
		t.Errorf("router holds %d records, cap is %d", records, maxRecords)
	}
	if !liveKept {
		t.Error("the unobserved live study was evicted")
	}
	for _, path := range []string{
		"/v1/studies/" + primer.ID, "/v1/studies/" + primer.ID + "/table",
		"/v1/studies/" + firstHit, "/v1/studies/" + firstHit + "/events",
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s after eviction = %d, want 404", path, resp.StatusCode)
		}
	}
}

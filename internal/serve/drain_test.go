package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/ott"
	"repro/internal/wideleak"
)

// TestServer_DrainUnderLoad pins the drain contract while work is still
// in flight: the moment Shutdown starts, new submissions get 503 and
// /healthz fails — but the running job and the queued backlog run to
// completion, and their status/table endpoints stay readable throughout.
func TestServer_DrainUnderLoad(t *testing.T) {
	srv := New(Config{Workers: 1, QueueSize: 4})
	gate := make(chan struct{})
	srv.testHookJobStart = func(*Job) { <-gate }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	running := submit(t, ts, smallSpec(), http.StatusAccepted)
	waitInFlight(t, srv, 1)
	queuedSpec := smallSpec()
	queuedSpec.Seed = "serve-test-drain-load"
	queued := submit(t, ts, queuedSpec, http.StatusAccepted)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(ctx) }()

	// Drain must become visible while the gate still holds the first job.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never flipped to 503 during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// New work is refused mid-drain...
	body, _ := json.Marshal(smallSpec())
	resp, err := http.Post(ts.URL+"/v1/studies", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("mid-drain submit = %d, want 503", resp.StatusCode)
	}
	// ...but accepted jobs are still observable, and still live. (The
	// gate holds the first job running; the second waits queued.)
	for _, id := range []string{running.ID, queued.ID} {
		if st := getStatus(t, ts, id); st.State.terminal() {
			t.Errorf("mid-drain job %s already %s, want live", id, st.State)
		}
	}
	select {
	case err := <-shutdownErr:
		t.Fatalf("Shutdown returned %v with a job still gated", err)
	default:
	}

	close(gate)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		if st := getStatus(t, ts, id); st.State != JobDone {
			t.Errorf("job %s drained to %s, want done", id, st.State)
		}
		if table := fetchTable(t, ts, id, "txt"); len(table) == 0 {
			t.Errorf("job %s: empty table after drain", id)
		}
	}
}

// TestServer_PrewarmConcurrent: racing Prewarm calls for one seed must
// all succeed with the same resident count, leave exactly one banked
// world snapshot, and make the first real request mint zero keys — the
// fleet daemon prewarms every replica at boot, sometimes while traffic
// is already arriving.
func TestServer_PrewarmConcurrent(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})

	const callers = 4
	var wg sync.WaitGroup
	residents := make([]int, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			residents[i], errs[i] = srv.Prewarm(context.Background(), "prewarm-conc", 3, 2)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("Prewarm[%d]: %v", i, errs[i])
		}
		if residents[i] != 3 {
			t.Errorf("Prewarm[%d] resident = %d, want 3", i, residents[i])
		}
	}
	if got := srv.worlds.len(); got != 1 {
		t.Errorf("world cache holds %d snapshots after concurrent prewarm, want 1", got)
	}

	// The racing warm-ups must have produced ONE coherent pool: a run over
	// the first profile (whose devices are the first stable IDs) finds
	// every key resident and generates nothing.
	first := ott.Profiles()[0].Name
	spec := wideleak.RunSpec{Seed: "prewarm-conc", Profiles: []string{first}, Probes: []string{"q2"}}
	if st := waitTerminal(t, ts, submit(t, ts, spec, http.StatusAccepted).ID); st.State != JobDone {
		t.Fatalf("prewarmed job: %s", st.Error)
	}
	if got := srv.metrics.RSAMinted(); got != 0 {
		t.Errorf("post-prewarm run minted %d keys, want 0", got)
	}
	if got := counterValue(t, metricsText(t, ts), "wideleakd_world_cache_hits_total"); got != "1" {
		t.Errorf("world cache hits = %s, want 1", got)
	}
}

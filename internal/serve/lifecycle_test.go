package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/wideleak"
)

// recordKind drives one kind of record through its half of the API. The
// lifecycle tests run every scenario over both kinds: a study is a batch
// of one, so the two must behave alike.
type recordKind struct {
	name   string
	base   string // collection path
	feed   string // stream path suffix
	metric string // terminal-state counter family
	submit func(t *testing.T, ts *httptest.Server, spec wideleak.RunSpec) string
}

var recordKinds = []recordKind{
	{"study", "/v1/studies", "/events", "wideleakd_jobs_total",
		func(t *testing.T, ts *httptest.Server, spec wideleak.RunSpec) string {
			return submit(t, ts, spec, http.StatusAccepted).ID
		}},
	{"batch", "/v1/batches", "/rows", "wideleakd_batches_total",
		func(t *testing.T, ts *httptest.Server, spec wideleak.RunSpec) string {
			return submitBatch(t, ts, []wideleak.RunSpec{spec}, http.StatusAccepted).ID
		}},
}

// heldSpec is the spec the lifecycle servers' start hook parks in the
// running state until the test releases it; lifeSpec runs freely. Both
// are cheap and share a seed, so a server mints one seed's keys at most.
func heldSpec() wideleak.RunSpec {
	return wideleak.RunSpec{Seed: "lifecycle", Profiles: []string{"Showtime"}, Probes: []string{"q3"}}
}

func lifeSpec() wideleak.RunSpec {
	return wideleak.RunSpec{Seed: "lifecycle", Profiles: []string{"Showtime"}, Probes: []string{"q2"}}
}

// newGatedServer starts a server whose workers hold every heldSpec job in
// the running state until gate closes. The returned release closes the
// gate once; cleanup releases it before draining.
func newGatedServer(t *testing.T, cfg Config) (*Server, *httptest.Server, func()) {
	t.Helper()
	gate := make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	held := heldSpec().Probes[0]
	srv := New(cfg)
	srv.testHookJobStart = func(j *Job) {
		if j.specs[0].Probes[0] == held {
			<-gate
		}
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		release()
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ts, release
}

// recordState reads one record's state, failing on anything but 200.
func recordState(t *testing.T, ts *httptest.Server, k recordKind, id string) JobState {
	t.Helper()
	resp, err := http.Get(ts.URL + k.base + "/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/%s = %d", k.base, id, resp.StatusCode)
	}
	var doc struct {
		State JobState `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.State
}

func waitState(t *testing.T, ts *httptest.Server, k recordKind, id string, want JobState) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		got := recordState(t, ts, k, id)
		if got == want {
			return
		}
		if got.terminal() || time.Now().After(deadline) {
			t.Fatalf("%s %s is %s, want %s", k.name, id, got, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// do sends a bodiless request and returns the status code.
func do(t *testing.T, method, url string) int {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// streamDone reads a record's SSE stream to its end and returns the
// states of its `event: done` frames, which must number exactly one.
func streamDone(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Error(err)
		return nil
	}
	defer resp.Body.Close()
	var states []string
	event := ""
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			var fin struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &fin); err != nil {
				t.Errorf("bad done frame %q: %v", line, err)
			}
			states = append(states, fin.State)
		}
	}
	return states
}

func checkStream(t *testing.T, states []string, want JobState) {
	t.Helper()
	if len(states) != 1 || states[0] != string(want) {
		t.Errorf("stream done frames = %q, want exactly one %q", states, want)
	}
}

// checkTerminalCounts asserts the terminal-state counters hold exactly
// want (family{state="..."} → count): every accepted record was counted
// once, under the state it ended in, and nothing else was counted.
func checkTerminalCounts(t *testing.T, ts *httptest.Server, want map[string]int) {
	t.Helper()
	got := make(map[string]int)
	for _, line := range strings.Split(metricsText(t, ts), "\n") {
		if strings.HasPrefix(line, "wideleakd_jobs_total{") || strings.HasPrefix(line, "wideleakd_batches_total{") {
			var n int
			sample := line[:strings.LastIndexByte(line, ' ')]
			fmt.Sscan(line[len(sample)+1:], &n)
			got[sample] = n
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("terminal counters = %v, want %v", got, want)
	}
}

func sample(family string, state JobState) string {
	return fmt.Sprintf("%s{state=%q}", family, state)
}

// TestLifecycle_CancelQueued: a record cancelled while it waits behind a
// held worker terminalizes in place, a second cancel is a conflict, its
// stream ends with one done frame, and the worker later skips it.
func TestLifecycle_CancelQueued(t *testing.T) {
	for _, k := range recordKinds {
		t.Run(k.name, func(t *testing.T) {
			srv, ts, release := newGatedServer(t, Config{Workers: 1, QueueSize: 2})
			blocker := submit(t, ts, heldSpec(), http.StatusAccepted)
			waitInFlight(t, srv, 1)
			id := k.submit(t, ts, lifeSpec())
			if got := recordState(t, ts, k, id); got != JobQueued {
				t.Fatalf("state behind a held worker = %s, want queued", got)
			}

			if got := do(t, http.MethodDelete, ts.URL+k.base+"/"+id); got != http.StatusAccepted {
				t.Fatalf("cancel = %d, want 202", got)
			}
			if got := recordState(t, ts, k, id); got != JobCanceled {
				t.Fatalf("state after cancel = %s", got)
			}
			if got := do(t, http.MethodDelete, ts.URL+k.base+"/"+id); got != http.StatusConflict {
				t.Errorf("second cancel = %d, want 409", got)
			}
			checkStream(t, streamDone(t, ts.URL+k.base+"/"+id+k.feed+"?stream=1"), JobCanceled)

			release()
			if st := waitTerminal(t, ts, blocker.ID); st.State != JobDone {
				t.Fatalf("blocker ended %s: %s", st.State, st.Error)
			}
			if got := recordState(t, ts, k, id); got != JobCanceled {
				t.Errorf("skipped record resurrected as %s", got)
			}
			checkTerminalCounts(t, ts, map[string]int{
				sample("wideleakd_jobs_total", JobDone): 1,
				sample(k.metric, JobCanceled):           1,
			})
		})
	}
}

// TestLifecycle_CancelRunning: cancelling a running record aborts its
// run; a client streaming it sees exactly one done frame, canceled.
func TestLifecycle_CancelRunning(t *testing.T) {
	for _, k := range recordKinds {
		t.Run(k.name, func(t *testing.T) {
			_, ts, release := newGatedServer(t, Config{Workers: 1, QueueSize: 2})
			id := k.submit(t, ts, heldSpec())
			waitState(t, ts, k, id, JobRunning)

			streamed := make(chan []string, 1)
			go func() { streamed <- streamDone(t, ts.URL+k.base+"/"+id+k.feed+"?stream=1") }()

			if got := do(t, http.MethodDelete, ts.URL+k.base+"/"+id); got != http.StatusAccepted {
				t.Fatalf("cancel = %d, want 202", got)
			}
			release()
			waitState(t, ts, k, id, JobCanceled)
			checkStream(t, <-streamed, JobCanceled)
			if got := do(t, http.MethodDelete, ts.URL+k.base+"/"+id); got != http.StatusConflict {
				t.Errorf("second cancel = %d, want 409", got)
			}
			checkTerminalCounts(t, ts, map[string]int{sample(k.metric, JobCanceled): 1})
		})
	}
}

// TestLifecycle_ShutdownCancelsLive: a Shutdown whose context has
// already expired cancels every live record of either kind — the queued
// one at once, the running one at its next boundary — and returns the
// context error once the workers wind down.
func TestLifecycle_ShutdownCancelsLive(t *testing.T) {
	for _, k := range recordKinds {
		t.Run(k.name, func(t *testing.T) {
			srv, ts, release := newGatedServer(t, Config{Workers: 1, QueueSize: 2})
			running := k.submit(t, ts, heldSpec())
			waitState(t, ts, k, running, JobRunning)
			queued := k.submit(t, ts, lifeSpec())

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			shutdown := make(chan error, 1)
			go func() { shutdown <- srv.Shutdown(ctx) }()
			waitState(t, ts, k, queued, JobCanceled)
			release()
			if err := <-shutdown; !errors.Is(err, context.Canceled) {
				t.Errorf("Shutdown = %v, want context.Canceled", err)
			}
			for _, id := range []string{running, queued} {
				if got := recordState(t, ts, k, id); got != JobCanceled {
					t.Errorf("%s after expired Shutdown = %s, want canceled", id, got)
				}
				checkStream(t, streamDone(t, ts.URL+k.base+"/"+id+k.feed+"?stream=1"), JobCanceled)
			}
			checkTerminalCounts(t, ts, map[string]int{sample(k.metric, JobCanceled): 2})
		})
	}
}

// TestLifecycle_StreamEndsOnce: a stream opened while the record is live
// and one opened after it finished both end with exactly one done frame
// carrying the terminal state.
func TestLifecycle_StreamEndsOnce(t *testing.T) {
	for _, k := range recordKinds {
		t.Run(k.name, func(t *testing.T) {
			_, ts, release := newGatedServer(t, Config{Workers: 1, QueueSize: 2})
			id := k.submit(t, ts, heldSpec())
			waitState(t, ts, k, id, JobRunning)
			streamed := make(chan []string, 1)
			go func() { streamed <- streamDone(t, ts.URL+k.base+"/"+id+k.feed+"?stream=1") }()
			release()
			checkStream(t, <-streamed, JobDone)
			checkStream(t, streamDone(t, ts.URL+k.base+"/"+id+k.feed+"?stream=1"), JobDone)
			checkTerminalCounts(t, ts, map[string]int{sample(k.metric, JobDone): 1})
		})
	}
}

// TestServer_BatchQueueFullSheds: batches wait in the same bounded queue
// as studies, so with the one worker held and the queue full, the next
// batch is shed with 429 + Retry-After and counted as a shed.
func TestServer_BatchQueueFullSheds(t *testing.T) {
	srv, ts, release := newGatedServer(t, Config{Workers: 1, QueueSize: 1})
	blocker := submit(t, ts, heldSpec(), http.StatusAccepted)
	waitInFlight(t, srv, 1)
	queued := submitBatch(t, ts, []wideleak.RunSpec{lifeSpec()}, http.StatusAccepted)

	body, _ := json.Marshal(map[string]any{"specs": []wideleak.RunSpec{smallSpec()}})
	resp, err := http.Post(ts.URL+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch into a full queue = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want 1", got)
	}
	if got := counterValue(t, metricsText(t, ts), "wideleakd_jobs_shed_total"); got != "1" {
		t.Errorf("shed counter = %s, want 1", got)
	}

	release()
	if st := waitTerminal(t, ts, blocker.ID); st.State != JobDone {
		t.Errorf("blocker ended %s", st.State)
	}
	if st := waitBatchTerminal(t, ts, queued.ID); st.State != JobDone {
		t.Errorf("queued batch ended %s: %s", st.State, st.Error)
	}
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func readGolden(t *testing.T) []byte {
	t.Helper()
	golden, err := os.ReadFile(filepath.Join("..", goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	return golden
}

// ops draws the first n ops of a workload's sequence for a seed.
func ops(t *testing.T, name string, seed int64, n int) []op {
	t.Helper()
	w, err := newWorkload(name, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen := w.newGen()
	out := make([]op, n)
	for i := range out {
		out[i] = gen.next()
	}
	return out
}

// The seed argument reproduces the op sequence, and another seed gives
// another sequence.
func TestSeedReproducesOpSequence(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			a, b := ops(t, name, 7, 300), ops(t, name, 7, 300)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("same seed gave different op sequences")
			}
			if reflect.DeepEqual(a, ops(t, name, 8, 300)) {
				t.Fatal("different seeds gave the same op sequence")
			}
		})
	}
}

// Two generators of one workload hand out the same ops, so the traced
// run's library replay repeats the workload's first ops even after the
// HTTP part has drawn from its own generator.
func TestGeneratorsOfOneWorkloadAgree(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 7, nil)
			if err != nil {
				t.Fatal(err)
			}
			first := w.newGen()
			a := make([]op, 300)
			for i := range a {
				a[i] = first.next()
			}
			second := w.newGen()
			for i := range a {
				if b := second.next(); !reflect.DeepEqual(a[i], b) {
					t.Fatalf("op %d: first generator gave %+v, second %+v", i, a[i], b)
				}
			}
		})
	}
}

// Fresh-studies and overlap-batch ops never repeat a fault schedule, so
// nothing a cache holds can serve them.
func TestFaultSeedsAreUnique(t *testing.T) {
	for _, name := range []string{"fresh-studies", "overlap-batch"} {
		seen := make(map[string]bool)
		for _, o := range ops(t, name, 3, 500) {
			if o.faults == nil || seen[o.faults.Seed] {
				t.Fatalf("%s: op %d reuses or lacks a fault seed", name, o.seq)
			}
			seen[o.faults.Seed] = true
		}
	}
}

// fakeAPI serves a born-done study whose table is body.
func fakeAPI(body []byte) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/studies", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"id": "s1", "state": "done"})
	})
	mux.HandleFunc("GET /v1/studies/s1/table", func(w http.ResponseWriter, r *http.Request) {
		w.Write(body)
	})
	return httptest.NewServer(mux)
}

// A served table that differs from its reference by one byte counts as
// a failed op and makes the run incorrect.
func TestCorruptedTableCountsAsFailed(t *testing.T) {
	golden := readGolden(t)
	w, err := newWorkload("hot-repeat", 1, golden)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range w.shapes {
		sh.refs = [][]byte{golden}
	}
	corrupt := append([]byte(nil), golden...)
	corrupt[len(corrupt)/2] ^= 1

	c := newClient()
	defer c.close()
	for _, tc := range []struct {
		name  string
		body  []byte
		wrong bool
	}{{"intact", golden, false}, {"corrupted", corrupt, true}} {
		t.Run(tc.name, func(t *testing.T) {
			srv := fakeAPI(tc.body)
			defer srv.Close()
			stats := &runStats{}
			stats.record(c.do(context.Background(), srv.URL, w, op{shape: 0}, 1), false)
			if got := stats.wrong == 1 && stats.failed == 1; got != tc.wrong {
				t.Fatalf("wrong=%d failed=%d, want a failure: %v", stats.wrong, stats.failed, tc.wrong)
			}
		})
	}
}

// A 429 from the API counts as a failed, shed op.
func TestShedCountsAsFailed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"job queue is full"}`, http.StatusTooManyRequests)
	}))
	defer srv.Close()
	w, err := newWorkload("fresh-studies", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := newClient()
	defer c.close()
	stats := &runStats{}
	r := c.do(context.Background(), srv.URL, w, w.newGen().next(), 1)
	stats.record(r, false)
	var he *httpError
	if !errors.As(r.err, &he) || stats.shed != 1 || stats.failed != 1 {
		t.Fatalf("err=%v shed=%d failed=%d", r.err, stats.shed, stats.failed)
	}
}

// Each workload, briefly, against a real in-process fleet: every op
// succeeds with verified tables and the workload's premise holds.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a fleet and mints keys")
	}
	golden := readGolden(t)
	ctx := context.Background()
	pool, _, err := mintPool(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := bootFleet(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.stop()
	c := newClient()
	defer c.close()
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 1, golden)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := setUp(ctx, c, w, pool, func() (fleetInfo, func(), error) { return tf.info, func() {}, nil }); err != nil {
				t.Fatal(err)
			}
			before, err := scrapeReplicas(ctx, c, tf.info)
			if err != nil {
				t.Fatal(err)
			}
			stats := drive(ctx, c, tf.info.Router, w, w.newGen(), 700*time.Millisecond, true, nil)
			after, err := scrapeReplicas(ctx, c, tf.info)
			if err != nil {
				t.Fatal(err)
			}
			if stats.failed != 0 || stats.completed() == 0 {
				t.Fatalf("%d of %d ops failed: %v", stats.failed, stats.attempted, stats.firstErr)
			}
			if err := premise(w, before, after); err != nil {
				t.Fatal(err)
			}
		})
	}
}

package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/wideleak"
)

// freshTableJSON runs one spec from scratch (no fleet, no caches) and
// encodes its table as JSON — the ground truth fanned-out batches must
// reproduce byte-for-byte.
func freshTableJSON(t *testing.T, spec wideleak.RunSpec) []byte {
	t.Helper()
	c, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	study, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	table, err := study.BuildTable()
	if err != nil {
		t.Fatal(err)
	}
	out, err := table.Encode("json")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func getFleetBatchStatus(t *testing.T, base, id string) fleetBatchStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/batches/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("batch status %s = %d (body: %s)", id, resp.StatusCode, buf.String())
	}
	var st fleetBatchStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitFleetBatchDone(t *testing.T, base, id string) fleetBatchStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st := getFleetBatchStatus(t, base, id)
		switch st.State {
		case "done":
			return st
		case "failed", "canceled":
			t.Fatalf("batch %s ended %s: %s", id, st.State, st.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("batch %s never finished", id)
	return fleetBatchStatus{}
}

// TestRouter_BatchFanout: a batch whose specs span two worlds is split
// by ring ownership — each sub-batch runs on the replica where its
// world's caches are warm — and the merged status, rows, tables and
// SSE stream translate everything back to fleet spec indexes.
func TestRouter_BatchFanout(t *testing.T) {
	f := startFleet(t, 2, serve.Config{Workers: 1})
	base := f.URL

	// Two seeds with different ring owners force a real fan-out.
	seedA := "fan-a"
	ownerA := f.Router.OwnerOf(worldKeyOf(t, wideleak.RunSpec{Seed: seedA}))
	seedB := ""
	for i := 0; i < 64; i++ {
		cand := fmt.Sprintf("fan-b%d", i)
		if f.Router.OwnerOf(worldKeyOf(t, wideleak.RunSpec{Seed: cand})) != ownerA {
			seedB = cand
			break
		}
	}
	if seedB == "" {
		t.Fatal("no candidate seed hashed to the second replica")
	}

	// Specs 0 and 2 share seed A's world (spec 2 is a probe subset of
	// spec 0, so its cells dedup); spec 1 lives on seed B's owner. The
	// interleaved order exercises the index remapping.
	specs := []wideleak.RunSpec{
		{Seed: seedA, Profiles: []string{"Showtime", "Netflix"}, Probes: []string{"q2", "q3"}},
		{Seed: seedB, Profiles: []string{"Showtime"}, Probes: []string{"q2"}},
		{Seed: seedA, Profiles: []string{"Showtime"}, Probes: []string{"q2"}},
	}
	body, err := json.Marshal(map[string]any{"specs": specs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID    string `json:"id"`
		Parts int    `json:"parts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit = %d", resp.StatusCode)
	}
	if sub.Parts != 2 {
		t.Fatalf("batch split into %d parts, want 2 (one per world owner)", sub.Parts)
	}

	st := waitFleetBatchDone(t, base, sub.ID)
	if st.RowsDone != 4 {
		t.Errorf("rows done = %d, want 4", st.RowsDone)
	}
	if len(st.Parts) != 2 {
		t.Fatalf("status parts = %d, want 2", len(st.Parts))
	}
	// Every spec landed on its world's owner, and no spec was dropped.
	placed := make(map[int]string)
	for _, part := range st.Parts {
		for _, idx := range part.Specs {
			placed[idx] = part.Replica
		}
	}
	if len(placed) != 3 {
		t.Fatalf("parts cover %d specs, want 3 (%v)", len(placed), placed)
	}
	for i, spec := range specs {
		owner := f.Router.OwnerOf(worldKeyOf(t, wideleak.RunSpec{Seed: spec.Seed}))
		if placed[i] != owner {
			t.Errorf("spec %d placed on %s, want world owner %s", i, placed[i], owner)
		}
	}
	// Specs 0 and 2 shared one world and their q2 cells on owner A.
	if st.Stats.WorldsBuilt != 2 {
		t.Errorf("worlds built = %d, want 2 (one per part)", st.Stats.WorldsBuilt)
	}
	if st.Stats.CellsPlanned >= st.Stats.CellsNeeded {
		t.Errorf("cells planned = %d, needed = %d: co-world specs did not dedup", st.Stats.CellsPlanned, st.Stats.CellsNeeded)
	}

	// Tables come back under fleet indexes, byte-identical to fresh runs.
	for i, spec := range specs {
		resp, err := http.Get(fmt.Sprintf("%s/v1/batches/%s/tables/%d?format=json", base, sub.ID, i))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("table %d = %d (body: %s)", i, resp.StatusCode, buf.String())
		}
		if want := freshTableJSON(t, spec); !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("spec %d: fanned-out table differs from fresh run", i)
		}
	}

	// Merged rows: every (spec, app) exactly once, fleet Seq 1..4.
	resp, err = http.Get(base + "/v1/batches/" + sub.ID + "/rows")
	if err != nil {
		t.Fatal(err)
	}
	var rows []serve.BatchRow
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(rows) != 4 {
		t.Fatalf("merged rows = %d, want 4", len(rows))
	}
	want := map[string]bool{"0/Showtime": true, "0/Netflix": true, "1/Showtime": true, "2/Showtime": true}
	for i, row := range rows {
		if row.Seq != int64(i+1) {
			t.Errorf("row %d Seq = %d, want %d", i, row.Seq, i+1)
		}
		key := fmt.Sprintf("%d/%s", row.Spec, row.App)
		if !want[key] {
			t.Errorf("unexpected or duplicate row %s", key)
		}
		delete(want, key)
	}
	if len(want) != 0 {
		t.Errorf("rows missing: %v", want)
	}

	// The SSE fan-in replays the merged backlog with ascending fleet Seq
	// and one final done frame.
	resp, err = http.Get(base + "/v1/batches/" + sub.ID + "/rows?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var streamed int
	doneState := ""
	event := ""
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if event == "row" {
				var row serve.BatchRow
				if err := json.Unmarshal([]byte(data), &row); err != nil {
					t.Fatalf("bad row frame %q: %v", data, err)
				}
				streamed++
				if row.Seq != int64(streamed) {
					t.Errorf("stream frame %d Seq = %d", streamed, row.Seq)
				}
			} else if event == "done" {
				var fin struct {
					State string `json:"state"`
				}
				json.Unmarshal([]byte(data), &fin)
				doneState = fin.State
			}
		}
	}
	if streamed != 4 {
		t.Errorf("streamed %d rows, want 4", streamed)
	}
	if doneState != "done" {
		t.Errorf("stream done state = %q, want done", doneState)
	}

	if got := scrape(t, base+"/metrics", "wideleakfleet_batches_total"); got != "1" {
		t.Errorf("wideleakfleet_batches_total = %q, want 1", got)
	}
}

// TestRouter_BatchShedRelayed: when a part's replica sheds its sub-batch
// with 429, the fleet cancels the parts it already placed and relays the
// shed as a fleet 429 + Retry-After instead of a 502. One worker is held
// by a running study and QueueSize 1 is filled, as in
// TestRouter_SpillOn429.
func TestRouter_BatchShedRelayed(t *testing.T) {
	f := startFleet(t, 2, serve.Config{Workers: 1, QueueSize: 1})
	base := f.URL

	seedA := "shed-a"
	ownerA := f.Router.OwnerOf(worldKeyOf(t, wideleak.RunSpec{Seed: seedA}))
	seedB := ""
	for i := 0; i < 64; i++ {
		cand := fmt.Sprintf("shed-b%d", i)
		if f.Router.OwnerOf(worldKeyOf(t, wideleak.RunSpec{Seed: cand})) != ownerA {
			seedB = cand
			break
		}
	}
	if seedB == "" {
		t.Fatal("no candidate seed hashed to the second replica")
	}
	ownerB := f.Router.OwnerOf(worldKeyOf(t, wideleak.RunSpec{Seed: seedB}))

	// Fill owner B: one running study holds its worker, one queued
	// subset fills its queue.
	running, _ := fleetSubmit(t, base, fmt.Sprintf(`{"seed": %q, "profiles": ["Showtime"]}`, seedB), http.StatusAccepted)
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, _ := getFleetStatus(t, base, running.ID)
		if st.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocking study never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}
	fleetSubmit(t, base, fmt.Sprintf(`{"seed": %q, "profiles": ["Showtime"], "probes": ["q2"]}`, seedB), http.StatusAccepted)

	// Spec 0 places a part on owner A first (a full study, long enough
	// to still be live when it is cancelled); spec 1's part is shed.
	body, err := json.Marshal(map[string]any{"specs": []wideleak.RunSpec{
		{Seed: seedA, Profiles: []string{"Showtime"}},
		{Seed: seedB, Profiles: []string{"Showtime"}, Probes: []string{"q3"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch onto a full replica = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want 1", got)
	}
	if got := scrape(t, base+"/metrics", "wideleakfleet_shed_total"); got != "1" {
		t.Errorf("wideleakfleet_shed_total = %q, want 1", got)
	}
	if got := scrape(t, base+"/metrics", fmt.Sprintf("wideleakfleet_replica_shed_total{replica=%q}", ownerB)); got != "1" {
		t.Errorf("replica_shed_total{%s} = %q, want 1", ownerB, got)
	}
	if got := scrape(t, base+"/metrics", "wideleakfleet_batches_total"); got != "0" {
		t.Errorf("wideleakfleet_batches_total = %q, want 0 (the batch was never accepted)", got)
	}

	// The part already placed on owner A was cancelled.
	repA := f.Replica(ownerA).URL
	deadline = time.Now().Add(60 * time.Second)
	for scrape(t, repA+"/metrics", `wideleakd_batches_total{state="canceled"}`) != "1" {
		if time.Now().After(deadline) {
			t.Fatalf("placed part on %s was never cancelled", ownerA)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

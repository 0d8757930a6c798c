package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runTraced is the per-layer run: in-process fleet, one set-up, a
// warm-up, an untraced half-window and a traced half-window of the
// workload over HTTP, then the library replay and the device path.
func runTraced(ctx context.Context, w *workload, window time.Duration) (*result, error) {
	pool, keygenMS, err := mintPool(ctx)
	if err != nil {
		return nil, err
	}
	spans := newSpanLog()
	c := newClient()
	c.spans = spans
	defer c.close()

	boot := func() (fleetInfo, func(), error) {
		f, err := bootFleet(ctx, spans)
		if err != nil {
			return fleetInfo{}, nil, err
		}
		return f.info, f.stop, nil
	}
	info, stop, err := setUp(ctx, c, w, pool, boot)
	if err != nil {
		return nil, err
	}
	defer stop()

	gen := w.newGen()
	drive(ctx, c, info.Router, w, gen, warmup, false, nil)

	// Untraced half: throughput baseline for the overhead, and the
	// retained heap per request (no spans are kept in this half).
	half := window / 2
	heap0 := liveHeap()
	untraced := drive(ctx, c, info.Router, w, gen, half, false, nil)
	heapPerReq := ratio(liveHeap()-heap0, float64(untraced.attempted))

	// Traced half.
	routerBefore, err := c.scrape(ctx, info.Router)
	if err != nil {
		return nil, err
	}
	before, err := scrapeReplicas(ctx, c, info)
	if err != nil {
		return nil, err
	}
	spans.on.Store(true)
	traced := drive(ctx, c, info.Router, w, gen, half, true, nil)
	spans.on.Store(false)
	// Statuses are read after the window, so both halves send the same
	// requests and the overhead is the spans' alone.
	if w.kind == batchOp {
		c.batchWalls(ctx, info, traced.results)
	} else {
		c.studyStatuses(ctx, info, traced.results)
	}
	routerAfter, err := c.scrape(ctx, info.Router)
	if err != nil {
		return nil, err
	}
	after, err := scrapeReplicas(ctx, c, info)
	if err != nil {
		return nil, err
	}

	lib, err := replayLibrary(ctx, w, pool, spans)
	if err != nil {
		return nil, err
	}
	dev, err := measureDevicePath(ctx, pool, spans)
	if err != nil {
		return nil, err
	}
	dev.keygenMS = keygenMS

	all := link(spans.snapshot())
	path := filepath.Join(outDir(), "traces", fmt.Sprintf("%s-seed%d.json", w.name, w.seed))
	if err := writeChromeTrace(path, all); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("trace: %d spans written to %s\n", len(all), path)

	m := make(map[string]metric)
	put := func(name, unit string, v float64, n int) { m[name] = metric{Value: v, Unit: unit, n: n} }

	// fleet: router self time on submits, and spills.
	self := selfMS(all)
	var route, submit []float64
	for _, s := range all {
		switch s.Name {
		case "fleet POST /v1/studies", "fleet POST /v1/batches":
			route = append(route, self[s.ID])
		case "serve POST /v1/studies", "serve POST /v1/batches":
			if s.Parent != 0 {
				submit = append(submit, s.ms())
			}
		}
	}
	rdelta := func(name string) float64 { return routerAfter[name] - routerBefore[name] }
	delta := func(name string) float64 { return after[name] - before[name] }
	put("fleet.route_ms_p50", "ms", median(route), len(route))
	put("fleet.spill_ratio", "ratio", ratio(rdelta("wideleakfleet_spilled_total"), rdelta("wideleakfleet_routed_total")), 0)

	// serve: tiers, sheds, retention, submit/queue/execute times.
	studies := delta("wideleakd_cache_hits_total") + delta("wideleakd_jobs_submitted_total") + delta("wideleakd_jobs_coalesced_total")
	tiers := make(map[string]int)
	for _, r := range traced.results {
		if r.tier != "" {
			tiers[r.tier]++
		}
	}
	classified := tiers["tier1"] + tiers["recombined"] + tiers["world"] + tiers["cold"]
	put("serve.submit_ms_p50", "ms", median(submit), len(submit))
	put("serve.tier1_hit_ratio", "ratio", ratio(float64(tiers["tier1"]), float64(classified)), classified)
	put("serve.cell_recombined_ratio", "ratio", ratio(float64(tiers["recombined"]), float64(classified)), classified)
	put("serve.shed_ratio", "ratio", ratio(delta("wideleakd_jobs_shed_total"), studies+delta("wideleakd_jobs_shed_total")), 0)
	put("serve.jobs_retained", "count", after["wideleakd_jobs_submitted_total"]+after["wideleakd_cache_hits_total"]+after["wideleakd_batches_total"], 0)
	put("serve.heap_bytes_per_request", "B", heapPerReq, untraced.attempted)
	var execute []float64
	var executeSum float64
	for _, r := range traced.results {
		if r.err != nil {
			continue
		}
		executeSum += r.executeMS
		if r.executed {
			execute = append(execute, r.executeMS)
		}
	}
	queue := queueWaits(all, traced.results)
	executePerOp := ratio(executeSum, float64(traced.completed()))
	put("serve.queue_wait_ms_p50", "ms", median(queue), len(queue))
	put("serve.execute_ms_p50", "ms", median(execute), len(execute))

	// Outcome of the whole HTTP part, and what tracing cost.
	attempted := untraced.attempted + traced.attempted
	failed := untraced.failed + traced.failed
	put("failed_ratio", "ratio", ratio(float64(failed), float64(attempted)), 0)
	uTput := float64(untraced.completed()) / untraced.elapsed.Seconds()
	tTput := float64(traced.completed()) / traced.elapsed.Seconds()
	put("trace.overhead_ratio", "ratio", 1-ratio(tTput, uTput), 0)
	put("trace.spans", "count", float64(len(all)), 0)

	lib.report(put)
	dev.report(put)
	ledger(lib, dev, executePerOp, put)

	correct := untraced.wrong == 0 && traced.wrong == 0 && lib.wrong == 0
	if err := premise(w, before, after); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		correct = false
	}
	for _, s := range []*runStats{untraced, traced} {
		if s.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed; first: %v\n", s.failed, s.attempted, s.firstErr)
		}
	}
	return &result{Correct: correct, Attempted: attempted + lib.ops, Failed: failed + lib.wrong, Metrics: m}, nil
}

// liveHeap returns the live heap in bytes after a full collection.
func liveHeap() float64 {
	runtime.GC()
	var stats runtime.MemStats
	runtime.ReadMemStats(&stats)
	return float64(stats.HeapAlloc)
}

// studyStatuses fills each traced study op's tier and execute time from
// its status document.
func (c *client) studyStatuses(ctx context.Context, info fleetInfo, results []opResult) {
	for i := range results {
		r := &results[i]
		if r.err != nil || r.id == "" {
			continue
		}
		var st studyStatus
		if c.getJSON(ctx, info.Router+"/v1/studies/"+r.id, -1, &st) != nil {
			continue
		}
		r.tier = st.tier()
		r.executed = !st.Cached
		if r.executed {
			r.executeMS = float64(st.WallMS)
		}
	}
}

// batchWalls fills each traced batch op's execute time: the longest
// part's wall time, read from the replicas that ran the parts.
func (c *client) batchWalls(ctx context.Context, info fleetInfo, results []opResult) {
	for i := range results {
		r := &results[i]
		if r.err != nil || r.id == "" {
			continue
		}
		var st struct {
			Parts []struct {
				Replica string `json:"replica"`
				BatchID string `json:"batch_id"`
			} `json:"parts"`
		}
		if c.getJSON(ctx, info.Router+"/v1/batches/"+r.id, -1, &st) != nil {
			continue
		}
		for _, p := range st.Parts {
			idx, err := strconv.Atoi(strings.TrimPrefix(p.Replica, "r"))
			if err != nil || idx < 0 || idx >= len(info.Replicas) {
				continue
			}
			var part struct {
				WallMS int64 `json:"wall_ms"`
			}
			if c.getJSON(ctx, info.Replicas[idx]+"/v1/batches/"+p.BatchID, -1, &part) == nil {
				r.executeMS = max(r.executeMS, float64(part.WallMS))
				r.executed = true
			}
		}
	}
}

// queueWaits returns, per executed study op, the time from the replica's
// submit handler returning (the job is queued) to its event stream
// ending (the job is terminal), minus the job's execute wall time.
func queueWaits(spans []span, results []opResult) []float64 {
	submitted := make(map[int64]int64)
	ended := make(map[int64]int64)
	for _, s := range spans {
		if s.Op == 0 {
			continue
		}
		switch s.Name {
		case "serve POST /v1/studies":
			submitted[s.Op] = s.End
		case "serve GET /v1/studies/{id}/events":
			ended[s.Op] = s.End
		}
	}
	var out []float64
	for _, r := range results {
		sub, ok1 := submitted[r.opID]
		end, ok2 := ended[r.opID]
		if r.err == nil && r.executed && ok1 && ok2 {
			out = append(out, max(0, float64(end-sub)/1e6-r.executeMS))
		}
	}
	return out
}

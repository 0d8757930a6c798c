package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/provision"
	"repro/internal/wideleak"
)

// runStats accumulates one phase's ops.
type runStats struct {
	mu        sync.Mutex
	latencies []float64 // ms, successful ops
	results   []opResult
	attempted int
	failed    int
	wrong     int
	shed      int
	cells     int
	elapsed   time.Duration
	firstErr  error
}

func (s *runStats) record(r opResult, keep bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if keep {
		s.results = append(s.results, r)
	}
	if r.err != nil {
		s.failed++
		if r.wrong {
			s.wrong++
		}
		var he *httpError
		if errors.As(r.err, &he) && he.status == http.StatusTooManyRequests {
			s.shed++
		}
		if s.firstErr == nil {
			s.firstErr = r.err
		}
		return
	}
	s.latencies = append(s.latencies, ms(r.latency))
	s.cells += r.cells
}

func (s *runStats) completed() int { return s.attempted - s.failed }

// drive runs the workload closed-loop from `clients` goroutines against
// base until d has passed, then waits for the ops in flight. keep keeps
// every op's result; onOp, when set, sees the running count of
// completed ops.
func drive(ctx context.Context, c *client, base string, w *workload, gen *opGen, d time.Duration, keep bool, onOp func(done int)) *runStats {
	stats := &runStats{}
	var done atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				o := gen.next()
				r := c.do(ctx, base, w, o, int64(o.seq)+1)
				stats.record(r, keep)
				if r.err == nil && onOp != nil {
					onOp(int(done.Add(1)))
				}
			}
		}()
	}
	wg.Wait()
	stats.elapsed = time.Since(start)
	return stats
}

// setUp brings one fleet up and makes it ready for the workload: boot
// with key-pool prewarm on every replica, the reference tables built
// through the library, and the cells primed into every replica.
func setUp(ctx context.Context, c *client, w *workload, pool *provision.KeyPool, boot func() (fleetInfo, func(), error)) (fleetInfo, func(), error) {
	info, stop, err := boot()
	if err != nil {
		return info, nil, err
	}
	if err := w.buildRefs(ctx, pool); err != nil {
		stop()
		return info, nil, err
	}
	if err := primeReplicas(ctx, c, info, w.prime); err != nil {
		stop()
		return info, nil, err
	}
	return info, stop, nil
}

// primeReplicas runs every priming spec on every replica directly (not
// through the router), so each replica holds every cell whichever way a
// request is routed.
func primeReplicas(ctx context.Context, c *client, info fleetInfo, specs []wideleak.RunSpec) error {
	errs := make([]error, len(info.Replicas))
	var wg sync.WaitGroup
	for i, base := range info.Replicas {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			for _, spec := range specs {
				if _, err := c.study(ctx, base, spec, -1); err != nil {
					errs[i] = fmt.Errorf("prime %s: %w", base, err)
					return
				}
			}
		}(i, base)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// scrapeReplicas sums every replica's /metrics.
func scrapeReplicas(ctx context.Context, c *client, info fleetInfo) (map[string]float64, error) {
	sum := make(map[string]float64)
	for _, base := range info.Replicas {
		m, err := c.scrape(ctx, base)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// premise checks one workload's defining property from the replicas'
// metric deltas over the timed window. A run that breaks it is invalid.
func premise(w *workload, before, after map[string]float64) error {
	delta := func(name string) float64 { return after[name] - before[name] }
	var errs []error
	need := func(name string) {
		if d := delta(name); d != 0 {
			errs = append(errs, fmt.Errorf("premise: %s moved by %g during the timed window", name, d))
		}
	}
	need("wideleakd_rsa_keys_minted_total")
	switch w.name {
	case "fresh-studies":
		need("wideleakd_cache_hits_total")
		need("wideleakd_jobs_cell_recombined_total")
	case "hot-repeat":
		need("wideleakd_cells_executed_total")
	case "overlap-batch":
		need("wideleakd_cells_cached_total")
	}
	return errors.Join(errs...)
}

// runEndToEnd is the untraced run: child-process fleet, setupRounds
// set-ups, a warm-up, then the timed window.
func runEndToEnd(ctx context.Context, w *workload, window time.Duration) (*result, error) {
	pool, _, err := mintPool(ctx)
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.close()

	var (
		fp     *fleetProc
		info   fleetInfo
		stop   func()
		setups []float64
	)
	boot := func() (fleetInfo, func(), error) {
		p, err := startFleet()
		if err != nil {
			return fleetInfo{}, nil, err
		}
		fp = p
		return p.fleetInfo, p.stop, nil
	}
	for round := 0; round < setupRounds; round++ {
		if stop != nil {
			stop()
		}
		start := time.Now()
		if info, stop, err = setUp(ctx, c, w, pool, boot); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer stop()

	gen := w.newGen()
	drive(ctx, c, info.Router, w, gen, warmup, false, nil)

	before, err := scrapeReplicas(ctx, c, info)
	if err != nil {
		return nil, err
	}
	cpu0, err := fp.cpuMS()
	if err != nil {
		return nil, err
	}
	rss := newRSSSampler(fp, w.equalWork)
	stats := drive(ctx, c, info.Router, w, gen, window, false, rss.opDone)
	rssPeak := rss.stop()
	cpu1, err := fp.cpuMS()
	if err != nil {
		return nil, err
	}
	after, err := scrapeReplicas(ctx, c, info)
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(os.Stderr, "perfbench: set-ups %.2fs, timed window %.2fs\n", setups, stats.elapsed.Seconds())
	correct := stats.wrong == 0
	if stats.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed; first: %v\n", stats.failed, stats.attempted, stats.firstErr)
	}
	if err := premise(w, before, after); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		correct = false
	}
	if stats.completed() == 0 {
		return nil, fmt.Errorf("no op completed: %v", stats.firstErr)
	}
	secs := stats.elapsed.Seconds()
	n := len(stats.latencies)
	res := &result{
		Correct:   correct,
		Attempted: stats.attempted,
		Failed:    stats.failed,
		Metrics: map[string]metric{
			"setup_s":                {Value: median(setups), Unit: "s", n: len(setups)},
			"latency_ms_p50":         {Value: quantile(stats.latencies, 0.5), Unit: "ms", n: n},
			"latency_ms_p90":         {Value: quantile(stats.latencies, 0.9), Unit: "ms", n: n},
			"throughput_per_s":       {Value: float64(stats.completed()) / secs, Unit: "1/s"},
			"cells_per_s":            {Value: float64(stats.cells) / secs, Unit: "1/s"},
			"server_cpu_ms_per_cell": {Value: ratio(cpu1-cpu0, float64(stats.cells)), Unit: "ms"},
			"rss_mib_peak":           {Value: rssPeak, Unit: "MiB"},
		},
	}
	fmt.Fprintf(os.Stdout, "failed_ratio %.4f (%d of %d ops; %d wrong tables, %d shed)\n",
		ratio(float64(stats.failed), float64(stats.attempted)), stats.failed, stats.attempted, stats.wrong, stats.shed)
	return res, nil
}

// rssSampler tracks the fleet's peak resident set size from the start
// of the timed window until the workload's equal-work op count.
type rssSampler struct {
	fp        *fleetProc
	equalWork int
	mu        sync.Mutex
	peak      float64
	frozen    bool
	quit      chan struct{}
	done      chan struct{}
}

func newRSSSampler(fp *fleetProc, equalWork int) *rssSampler {
	s := &rssSampler{fp: fp, equalWork: equalWork, quit: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	v, err := s.fp.rssMiB()
	if err != nil {
		return
	}
	s.mu.Lock()
	if !s.frozen && v > s.peak {
		s.peak = v
	}
	s.mu.Unlock()
}

// opDone freezes the peak once the equal-work op count is reached.
func (s *rssSampler) opDone(done int) {
	if done == s.equalWork {
		s.sample()
		s.mu.Lock()
		s.frozen = true
		s.mu.Unlock()
	}
}

func (s *rssSampler) stop() float64 {
	close(s.quit)
	<-s.done
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

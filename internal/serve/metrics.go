package serve

import (
	"strings"
	"sync"

	"repro/internal/netsim"
	"repro/internal/promtext"
	"repro/internal/wideleak"
	"repro/internal/wideleak/probe"
)

// Metrics is the daemon's instrumentation: hand-rolled counters, gauges
// and histograms rendered in the Prometheus text exposition format, fed
// from the study engine's probe.Event stream and the network layer's
// RetryObserver. Everything is safe for concurrent use.
type Metrics struct {
	mu sync.Mutex

	submitted   int64
	shed        int64
	coalesced   int64
	cacheHits   int64
	cacheMisses int64
	worldHits   int64 // tier-2 (world/fixture) cache hits
	worldMisses int64 // tier-2 misses: the job built its world cold
	rsaMinted   int64 // 2048-bit device keys actually generated by jobs
	degraded    int64

	cells           wideleak.BatchStats // every run's cell-sharing counters, summed
	cellRecombined  int64               // jobs reassembled purely from memoized cells
	batchRows       int64               // rows completed by batch runs
	batchesFinished map[string]int64    // terminal state → count

	jobs    map[string]int64 // terminal state → count
	retries map[string]int64 // host → masked transient attempts

	probeWall    *promtext.Histogram
	probeVirtual *promtext.Histogram

	// The gauges are sampled live at render time. The server sets
	// retained after construction; it reads an atomic, never a lock the
	// server may hold while it counts.
	queueDepth func() int
	inFlight   func() int
	retained   func() int
}

func newMetrics(queueDepth, inFlight func() int) *Metrics {
	return &Metrics{
		jobs:            make(map[string]int64),
		retries:         make(map[string]int64),
		batchesFinished: make(map[string]int64),
		// Probe wall times are sub-second on the simulator; virtual times
		// accumulate injected latency and backoff, so their buckets reach
		// into minutes.
		probeWall:    promtext.NewHistogram(.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5),
		probeVirtual: promtext.NewHistogram(.005, .01, .05, .1, .5, 1, 5, 10, 30, 60, 120),
		queueDepth:   queueDepth,
		inFlight:     inFlight,
		retained:     func() int { return 0 },
	}
}

// ObserveEvent folds one probe pipeline event into the metrics: finished
// and degraded probes feed the wall/virtual duration histograms (and the
// degraded counter). Retry events are deliberately NOT counted here —
// retries reach the metrics exactly once, through the RetryObserver
// adapter composed onto the network, so wiring both paths (as the
// server does) cannot double-count.
func (m *Metrics) ObserveEvent(ev probe.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch ev.Kind {
	case probe.EventProbeFinished:
		m.probeWall.Observe(ev.Wall.Seconds())
		m.probeVirtual.Observe(ev.Virtual.Seconds())
	case probe.EventProbeDegraded:
		m.degraded++
		m.probeWall.Observe(ev.Wall.Seconds())
		m.probeVirtual.Observe(ev.Virtual.Seconds())
	}
}

// RetryObserver returns a netsim adapter counting masked transient
// attempts per host — installed alongside the study's own observer via
// netsim.CombineRetryObservers, so the event log and the metrics both
// see every retry.
func (m *Metrics) RetryObserver() netsim.RetryObserver {
	return func(host string, attempt int, err error) {
		m.mu.Lock()
		m.retries[host]++
		m.mu.Unlock()
	}
}

func (m *Metrics) addSubmitted() { m.add(&m.submitted) }
func (m *Metrics) addShed()      { m.add(&m.shed) }
func (m *Metrics) addCoalesced() { m.add(&m.coalesced) }
func (m *Metrics) addCacheHit()  { m.add(&m.cacheHits) }
func (m *Metrics) addCacheMiss() { m.add(&m.cacheMisses) }
func (m *Metrics) addWorldHit()  { m.add(&m.worldHits) }
func (m *Metrics) addWorldMiss() { m.add(&m.worldMisses) }

// addRSAMinted accounts one job's actual key generations — the
// cold-start work the pool/snapshot/world tiers exist to avoid. A fully
// warmed job adds zero.
func (m *Metrics) addRSAMinted(n int64) {
	m.mu.Lock()
	m.rsaMinted += n
	m.mu.Unlock()
}

// RSAMinted reports the running total of device keys generated by jobs;
// tier-2 cache tests pin it unchanged across a world-cache hit.
func (m *Metrics) RSAMinted() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rsaMinted
}

// addCellStats folds one matrix run's sharing counters into the cell
// tier's metrics, including the device-axis dimension: fixture cells the
// batch's built worlds actually manufactured, per device profile.
func (m *Metrics) addCellStats(st wideleak.BatchStats) {
	m.mu.Lock()
	m.cells.Add(st)
	m.mu.Unlock()
}

func (m *Metrics) addCellRecombined() { m.add(&m.cellRecombined) }

// addBatchRow counts one streamed batch row.
func (m *Metrics) addBatchRow() { m.add(&m.batchRows) }

func (m *Metrics) add(field *int64) {
	m.mu.Lock()
	*field++
	m.mu.Unlock()
}

// jobFinished counts one job reaching a terminal state.
func (m *Metrics) jobFinished(state JobState) {
	m.mu.Lock()
	m.jobs[string(state)]++
	m.mu.Unlock()
}

// batchFinished counts one batch reaching a terminal state.
func (m *Metrics) batchFinished(state JobState) {
	m.mu.Lock()
	m.batchesFinished[string(state)]++
	m.mu.Unlock()
}

// Render produces the Prometheus text exposition. Output is stable:
// metric families in fixed order, label values sorted.
func (m *Metrics) Render() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder

	promtext.Counter(&b, "wideleakd_jobs_submitted_total", "Study submissions accepted into the queue.", m.submitted)
	promtext.Counter(&b, "wideleakd_jobs_shed_total", "Submissions rejected with 429 because the queue was full.", m.shed)
	promtext.Counter(&b, "wideleakd_jobs_coalesced_total", "Submissions attached to an identical in-flight job.", m.coalesced)
	promtext.Counter(&b, "wideleakd_cache_hits_total", "Submissions served from the result cache with no device work.", m.cacheHits)
	promtext.Counter(&b, "wideleakd_cache_misses_total", "Submissions that had to run the study.", m.cacheMisses)
	promtext.Counter(&b, "wideleakd_world_cache_hits_total", "Jobs that restored a warmed world snapshot (tier 2) instead of building cold.", m.worldHits)
	promtext.Counter(&b, "wideleakd_world_cache_misses_total", "Jobs that built their world cold (no usable snapshot).", m.worldMisses)
	promtext.Counter(&b, "wideleakd_rsa_keys_minted_total", "2048-bit device RSA keys actually generated by jobs (zero on warmed paths).", m.rsaMinted)
	promtext.Counter(&b, "wideleakd_probe_degraded_total", "Probe runs that exhausted transport retries and degraded.", m.degraded)
	promtext.Counter(&b, "wideleakd_cells_cached_total", "Probe cells satisfied from the memoized cell LRU.", int64(m.cells.CellsCached))
	promtext.Counter(&b, "wideleakd_cells_executed_total", "Probe cells that actually ran a probe.", int64(m.cells.CellsExecuted))
	promtext.Counter(&b, "wideleakd_jobs_cell_recombined_total", "Jobs reassembled purely from memoized cells (zero device work below tier 1).", m.cellRecombined)
	promtext.Counter(&b, "wideleakd_batch_rows_total", "Rows completed by batch runs.", m.batchRows)
	promtext.CounterVec(&b, "wideleakd_device_cells_total", "Fixture device cells manufactured by built worlds, by device profile.", "profile", m.cells.DeviceCells)
	promtext.CounterVec(&b, "wideleakd_manifests_served_total", "CDN manifests served by built worlds, by manifest dialect.", "dialect", m.cells.ManifestsServed)
	promtext.CounterVec(&b, "wideleakd_batches_total", "Batches finished, by terminal state.", "state", m.batchesFinished)
	promtext.CounterVec(&b, "wideleakd_jobs_total", "Jobs finished, by terminal state.", "state", m.jobs)
	promtext.CounterVec(&b, "wideleakd_netsim_retries_total", "Masked transient transport faults, by host.", "host", m.retries)
	promtext.Gauge(&b, "wideleakd_queue_depth", "Jobs waiting in the queue.", int64(m.queueDepth()))
	promtext.Gauge(&b, "wideleakd_jobs_inflight", "Jobs currently running on workers.", int64(m.inFlight()))
	promtext.Gauge(&b, "wideleakd_jobs_retained", "Study and batch records held for lookup (live ones plus the newest terminal ones).", int64(m.retained()))

	m.probeWall.Render(&b, "wideleakd_probe_wall_seconds", "Wall-clock duration of one probe run.")
	m.probeVirtual.Render(&b, "wideleakd_probe_virtual_seconds", "Virtual-clock time charged to one probe run (injected latency, backoff).")
	return b.String()
}

// Package serve turns the WideLeak study engine into a service: an HTTP
// JSON API over a bounded job queue and worker pool, with a
// content-addressed result cache, structured per-job event logs
// (polled or streamed as server-sent events), Prometheus-text metrics,
// load shedding, and graceful drain.
//
// API surface (see cmd/wideleakd for the daemon):
//
//	POST   /v1/studies               submit {seed, probes, profiles, faults, concurrency}
//	GET    /v1/studies               list jobs, newest first
//	GET    /v1/studies/{id}          job status
//	DELETE /v1/studies/{id}          cancel a queued or running job
//	GET    /v1/studies/{id}/table    results (?format=txt|csv|json)
//	GET    /v1/studies/{id}/events   structured probe event log (?stream=1 for SSE)
//	GET    /metrics                  Prometheus text exposition
//	GET    /healthz                  liveness (503 while draining)
//
// plus the batch routes in batch.go. A study is a batch of one: both
// kinds are Jobs, queued on one bounded queue, run by one worker pool
// through wideleak.ExecuteBatch, and retained in one record table that
// keeps every live job and the newest terminal ones.
//
// Identical canonical studies (same seed, probes, profiles and fault
// schedule — wideleak.RunSpec.Key) are served from the cache with zero
// new device work; a full queue sheds load with 429 + Retry-After; and
// Shutdown drains every queued and in-flight job before returning.
package serve

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/provision"
	"repro/internal/wideleak"
	"repro/internal/wideleak/probe"
)

// Cache-provenance headers. The daemon stamps them so a fleet router or
// load harness can attribute every response to the tier that produced
// it without scraping /metrics:
//
//   - HeaderCacheTier on POST /v1/studies: "hit" (tier-1 result cache,
//     job born done), "coalesced" (attached to an identical live job),
//     or "miss" (a fresh run was queued).
//   - HeaderWorldCache on done-job responses (submit hits, status,
//     table): "hit" when the run that produced the bytes restored a
//     tier-2 world snapshot, "miss" when it built its world cold.
const (
	HeaderCacheTier  = "X-Wideleak-Cache"
	HeaderWorldCache = "X-Wideleak-World-Cache"
)

// Config sizes the server. Zero values select the defaults.
type Config struct {
	// Workers is the study worker pool size (default GOMAXPROCS).
	Workers int
	// QueueSize bounds the backlog of accepted-but-not-running jobs
	// (default 16). Submissions beyond it are shed with HTTP 429.
	QueueSize int
	// CacheSize bounds the LRU result cache (default 64 entries).
	CacheSize int
	// WorldCacheSize bounds the tier-2 world-snapshot cache and the
	// per-seed key-pool index (default 16 entries each). A snapshot is
	// ~50 KB; a pool holds the seed's live RSA keys.
	WorldCacheSize int
	// CellCacheSize bounds the probe-cell LRU (default 4096 outcomes)
	// that makes the result tier cell-aware: a request whose cells are
	// all resident is reassembled with zero device work even when its
	// exact RunSpec was never served before.
	CellCacheSize int
}

// maxRetained bounds the record table: once it holds more jobs than
// this, the oldest terminal ones are forgotten and their IDs answer 404.
// Live jobs are never evicted; there are at most QueueSize + Workers of
// them.
const maxRetained = 1024

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 16
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 64
	}
	if c.WorldCacheSize <= 0 {
		c.WorldCacheSize = 16
	}
	if c.CellCacheSize <= 0 {
		c.CellCacheSize = 4096
	}
	return c
}

// Server owns the job table, queue, worker pool, cache and metrics.
// Create with New, expose via Handler, stop with Shutdown.
type Server struct {
	cfg     Config
	metrics *Metrics
	cache   *resultCache

	// worlds is tier 2 below the result cache: world identity (seed +
	// fault schedule) → serialized snapshot of the warmed world's RSA
	// provisioning state. pools indexes the per-seed Device RSA key
	// pools shared by every job of a seed, so even a tier-2 miss on a
	// known seed re-mints nothing.
	worlds *worldCache
	pools  *lruCache // seed → *provision.KeyPool

	// cells is the sub-result memoization tier between the result cache
	// and the world cache: completed (world, profile, probe) outcomes by
	// CellKey. It makes the result tier cell-aware — a probe-subset
	// request recombines resident cells instead of re-running — and it is
	// what lets a batch share work across overlapping specs.
	cells *wideleak.CellCache

	mu       sync.Mutex
	jobs     map[string]*Job // retained studies and batches by ID
	order    *list.List      // of *Job, oldest submission first
	active   map[string]*Job // canonical key → live study (coalescing)
	queue    chan *Job
	draining bool
	seq      int64

	inFlight atomic.Int64
	retained atomic.Int64 // len(jobs), readable without s.mu
	wg       sync.WaitGroup

	// testHookJobStart, when set, runs once a worker has moved a job to
	// running and before it executes — tests use it to hold jobs in the
	// running state deterministically.
	testHookJobStart func(*Job)
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		cache:  newResultCache(cfg.CacheSize),
		worlds: newWorldCache(cfg.WorldCacheSize),
		pools:  newLRUCache(cfg.WorldCacheSize),
		cells:  wideleak.NewCellCache(cfg.CellCacheSize),
		jobs:   make(map[string]*Job),
		order:  list.New(),
		active: make(map[string]*Job),
		queue:  make(chan *Job, cfg.QueueSize),
	}
	s.metrics = newMetrics(
		func() int { return len(s.queue) },
		func() int { return int(s.inFlight.Load()) },
	)
	s.metrics.retained = func() int { return int(s.retained.Load()) }
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Metrics exposes the server's instrumentation (the /metrics handler
// renders it; tests and embedders may too).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Prewarm kills the cold start for a seed before the first request
// arrives: it pre-mints up to n of the seed's device RSA keys into the
// shared key pool (n <= 0 means all of them) on parallelism workers,
// then banks a world snapshot so the first cold request restores
// instead of building. Keys are byte-identical to lazily minted ones,
// so prewarming is invisible to results. Returns the number of keys
// resident for the seed.
//
// Prewarm is idempotent and safe to run concurrently with traffic; the
// daemon calls it at boot (see wideleakd -prewarm) and logs the warm-up
// duration.
func (s *Server) Prewarm(ctx context.Context, seed string, n, parallelism int) (int, error) {
	spec := wideleak.RunSpec{Seed: seed}
	c, err := spec.Canonicalize()
	if err != nil {
		return 0, err
	}
	ids := wideleak.DeviceStableIDs(nil)
	if n > 0 && n < len(ids) {
		ids = ids[:n]
	}
	pool := s.keyPool(c.Seed)
	if err := pool.Prewarm(ctx, ids, parallelism); err != nil {
		return pool.Size(), err
	}

	// Bank the warmed (fault-free) world identity: a fresh world over
	// the default profiles with the pool attached snapshots every
	// pre-minted key without running any study.
	worldKey, err := spec.WorldKey()
	if err != nil {
		return pool.Size(), err
	}
	world, err := wideleak.NewWorld(c.Seed, nil)
	if err != nil {
		return pool.Size(), err
	}
	if err := world.AttachKeyPool(pool); err != nil {
		return pool.Size(), err
	}
	snap, err := world.Snapshot()
	if err != nil {
		return pool.Size(), err
	}
	s.worlds.put(worldKey, snap)
	return pool.Size(), nil
}

// Shutdown drains the server: no further submissions are accepted (503),
// every queued and in-flight job runs to completion, then the worker
// pool exits. If ctx expires first, in-flight jobs are cancelled and
// Shutdown returns the context error once the workers wind down.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			j.requestCancel()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob executes one queued job end to end.
func (s *Server) runJob(job *Job) {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if !job.start(cancel) {
		// Cancelled while still queued; nothing to run.
		s.clearActive(job)
		return
	}
	if hook := s.testHookJobStart; hook != nil {
		hook(job)
	}

	res, err := s.execute(ctx, job)
	s.clearActive(job)
	switch {
	case err == nil:
		if !job.batch {
			s.cache.put(job.Key, res)
		}
		job.finish(JobDone, res, "")
	case errors.Is(err, context.Canceled):
		job.finish(JobCanceled, nil, err.Error())
	default:
		job.finish(JobFailed, nil, err.Error())
	}
}

// keyPool returns the shared Device RSA key pool for a seed, minting
// the pool itself on first use. Every job (and boot prewarm) of one
// seed shares one pool, so 2048-bit keys are generated at most once per
// (seed, device) for the server's lifetime — modulo LRU eviction.
func (s *Server) keyPool(seed string) *provision.KeyPool {
	return s.pools.getOrPut(seed, func() any { return wideleak.NewKeyPool(seed) }).(*provision.KeyPool)
}

// buildStudy materializes a spec's study through the warm tiers: a
// tier-2 world-snapshot hit restores the warmed world in milliseconds;
// a miss builds cold. Either way the seed's shared key pool is attached
// before any provisioning traffic, so whatever keys the tiers did not
// cover mint once per seed, not once per job.
func (s *Server) buildStudy(spec wideleak.RunSpec) (*wideleak.Study, bool, error) {
	worldKey, err := spec.WorldKey()
	if err != nil {
		return nil, false, err
	}
	var study *wideleak.Study
	worldHit := false
	if snap := s.worlds.get(worldKey); snap != nil {
		if study, err = spec.BuildFromSnapshot(snap); err == nil {
			s.metrics.addWorldHit()
			worldHit = true
		} else {
			study = nil // corrupt/mismatched snapshot: fall through to a cold build
		}
	}
	if study == nil {
		s.metrics.addWorldMiss()
		if study, err = spec.Build(); err != nil {
			return nil, false, err
		}
	}
	if err := study.World.AttachKeyPool(s.keyPool(spec.Seed)); err != nil {
		return nil, false, err
	}
	return study, worldHit, nil
}

// builtWorld remembers one study a run materialized, so the server
// can account its key mints and bank its snapshot after the run.
type builtWorld struct {
	spec     wideleak.RunSpec // seed + faults + union profiles
	study    *wideleak.Study
	worldHit bool
}

// bankWorlds accounts each built study's key generations and banks its
// warmed snapshot: the next run sharing that world identity restores in
// milliseconds instead of re-provisioning. (Re-banking after a tier-2
// hit just refreshes recency — determinism makes the bytes agree.)
func (s *Server) bankWorlds(built []builtWorld) {
	for _, bw := range built {
		s.metrics.addRSAMinted(bw.study.World.Registry.MintCount())
		if worldKey, err := bw.spec.WorldKey(); err == nil {
			if snap, err := bw.study.World.Snapshot(); err == nil {
				s.worlds.put(worldKey, snap)
			}
		}
	}
}

// execute runs the job's specs as one cell matrix under the job's
// context, wiring the probe event stream into the metrics (and a
// study's log and SSE subscribers), a batch's completed rows into its
// row stream, and the network retry stream into the per-host retry
// counters.
//
// The run goes through the matrix scheduler with the server's cell
// cache, which makes the result tier cell-aware: when every cell a
// study needs is already memoized (a probe subset of an earlier run),
// the table is reassembled with zero device work — no world built, no
// observation executed — and overlapping batch specs pay for their
// union once.
func (s *Server) execute(ctx context.Context, job *Job) (*studyResult, error) {
	var (
		builtMu sync.Mutex
		built   []builtWorld
	)
	opts := wideleak.BatchOptions{
		Concurrency: job.concurrency,
		Cache:       s.cells,
		BuildStudy: func(spec wideleak.RunSpec) (*wideleak.Study, error) {
			study, worldHit, err := s.buildStudy(spec)
			if err != nil {
				return nil, err
			}
			study.SetEventSink(func(ev probe.Event) {
				s.metrics.ObserveEvent(job.record(ev))
			})
			// SetEventSink installed the sink's own retry forwarder on the
			// network; compose the per-host metrics adapter alongside it.
			network := study.World.Network
			network.SetRetryObserver(netsim.CombineRetryObservers(network.RetryObserver(), s.metrics.RetryObserver()))
			builtMu.Lock()
			built = append(built, builtWorld{spec: spec, study: study, worldHit: worldHit})
			builtMu.Unlock()
			return study, nil
		},
	}
	if job.batch {
		opts.OnRow = func(u wideleak.RowUpdate) {
			job.appendRow(renderRow(u.Spec, u.Row))
			s.metrics.addBatchRow()
		}
	}
	wallStart := time.Now()
	batch, err := wideleak.ExecuteBatch(ctx, job.specs, opts)
	if err != nil {
		return nil, err
	}

	res := &studyResult{
		tables:          make([]map[string][]byte, len(batch.Tables)),
		stats:           batch.Stats,
		rows:            len(batch.Tables[0].Rows),
		wall:            time.Since(wallStart),
		cellsRecombined: batch.Stats.CellsExecuted == 0 && batch.Stats.WorldsBuilt == 0,
	}
	for _, bw := range built {
		res.virtual += bw.study.World.Clock().Now()
		res.worldHit = res.worldHit || bw.worldHit
	}
	for i, table := range batch.Tables {
		res.tables[i] = make(map[string][]byte, len(wideleak.TableFormats()))
		for _, format := range wideleak.TableFormats() {
			out, err := table.Encode(format)
			if err != nil {
				return nil, fmt.Errorf("serve: encode spec %d as %s: %w", i, format, err)
			}
			res.tables[i][format] = out
		}
	}
	s.metrics.addCellStats(batch.Stats)
	if !job.batch {
		if res.cellsRecombined {
			s.metrics.addCellRecombined()
		}
		if res.events, err = job.log.MarshalJSON(); err != nil {
			return nil, fmt.Errorf("serve: encode events: %w", err)
		}
		res.eventCount = job.log.Len()
	}
	s.bankWorlds(built)
	return res, nil
}

// clearActive drops the job from the coalescing index.
func (s *Server) clearActive(job *Job) {
	s.mu.Lock()
	if s.active[job.Key] == job {
		delete(s.active, job.Key)
	}
	s.mu.Unlock()
}

// newJobLocked mints a live job with the next ID of the one sequence
// (sNNNNNN-<key prefix> for a study, bNNNNNN for a batch); the caller
// holds s.mu and retains the job once it is accepted.
func (s *Server) newJobLocked(specs []wideleak.RunSpec, key string, batch bool) *Job {
	s.seq++
	id := fmt.Sprintf("s%06d-%.8s", s.seq, key)
	count := s.metrics.jobFinished
	if batch {
		id = fmt.Sprintf("b%06d", s.seq)
		count = s.metrics.batchFinished
	}
	job := &Job{
		ID:        id,
		Key:       key,
		specs:     specs,
		batch:     batch,
		count:     count,
		state:     JobQueued,
		submitted: time.Now(),
	}
	if !batch {
		job.log = &probe.Log{}
		job.concurrency = specs[0].Concurrency
	}
	return job
}

// retainLocked adds a job to the record table, then forgets the oldest
// terminal jobs until the table is back within maxRetained. Live jobs
// are skipped, never evicted. The caller holds s.mu.
func (s *Server) retainLocked(job *Job) {
	s.jobs[job.ID] = job
	s.order.PushBack(job)
	for e := s.order.Front(); e != nil && len(s.jobs) > maxRetained; {
		next := e.Next()
		if old := e.Value.(*Job); old.State().terminal() {
			s.order.Remove(e)
			delete(s.jobs, old.ID)
		}
		e = next
	}
	s.retained.Store(int64(len(s.jobs)))
}

// enqueueLocked hands a fresh job to the worker pool and retains it. A
// full queue sheds it instead: the job is never recorded, and the
// caller answers with shed once it has released s.mu.
func (s *Server) enqueueLocked(job *Job) bool {
	select {
	case s.queue <- job:
		s.retainLocked(job)
		return true
	default:
		s.metrics.addShed()
		return false
	}
}

// shed tells a client the queue is full and when to come back.
func shed(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, "job queue is full")
}

// lookup finds a retained job of the route's kind, answering 404 when
// there is none (never submitted, or evicted).
func (s *Server) lookup(w http.ResponseWriter, r *http.Request, batch bool) *Job {
	s.mu.Lock()
	job := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if job == nil || job.batch != batch {
		writeError(w, http.StatusNotFound, "no such "+noun(batch))
		return nil
	}
	return job
}

func noun(batch bool) string {
	if batch {
		return "batch"
	}
	return "study"
}

// Handler returns the HTTP API. Studies and batches share every handler
// but submission; the route decides which kind an ID must name.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/studies", s.handleSubmit)
	mux.HandleFunc("POST /v1/batches", s.handleBatchSubmit)
	for _, k := range []struct {
		base, feed, table string
		batch             bool
	}{
		{"/v1/studies", "/events", "/table", false},
		{"/v1/batches", "/rows", "/tables/{spec}", true},
	} {
		mux.HandleFunc("GET "+k.base, s.handleList(k.batch))
		mux.HandleFunc("GET "+k.base+"/{id}", s.handleStatus(k.batch))
		mux.HandleFunc("DELETE "+k.base+"/{id}", s.handleCancel(k.batch))
		mux.HandleFunc("GET "+k.base+"/{id}"+k.table, s.handleTable(k.batch))
		mux.HandleFunc("GET "+k.base+"/{id}"+k.feed, s.handleFeed(k.batch))
	}
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// submitResponse is the wire shape of POST /v1/studies.
type submitResponse struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Cached    bool     `json:"cached"`
	Coalesced bool     `json:"coalesced,omitempty"`
	StatusURL string   `json:"status_url"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec wideleak.RunSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	canonical, err := spec.Canonicalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key, err := canonical.Key()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}

	// Content-addressed cache: an identical canonical request is served
	// without any device work — the job is born done. The provenance
	// headers let a fleet harness attribute the hit to its cache tier.
	specs := []wideleak.RunSpec{canonical}
	if res := s.cache.get(key); res != nil {
		job := s.newJobLocked(specs, key, false)
		job.cached = true
		job.state = JobDone
		job.result = res
		s.retainLocked(job)
		s.metrics.addCacheHit()
		s.mu.Unlock()
		w.Header().Set(HeaderCacheTier, "hit")
		w.Header().Set(HeaderWorldCache, worldCacheLabel(res.worldHit))
		writeJSON(w, http.StatusOK, submitResponse{
			ID: job.ID, State: JobDone, Cached: true,
			StatusURL: job.url(),
		})
		return
	}

	// Coalesce with an identical queued/running job instead of doing the
	// same device work twice.
	if live := s.active[key]; live != nil {
		state := live.State()
		s.metrics.addCoalesced()
		s.mu.Unlock()
		w.Header().Set(HeaderCacheTier, "coalesced")
		writeJSON(w, http.StatusAccepted, submitResponse{
			ID: live.ID, State: state, Coalesced: true,
			StatusURL: live.url(),
		})
		return
	}

	job := s.newJobLocked(specs, key, false)
	if !s.enqueueLocked(job) {
		s.mu.Unlock()
		shed(w)
		return
	}
	s.active[key] = job
	s.metrics.addSubmitted()
	s.metrics.addCacheMiss()
	s.mu.Unlock()
	w.Header().Set(HeaderCacheTier, "miss")
	w.Header().Set("Location", job.url())
	writeJSON(w, http.StatusAccepted, submitResponse{
		ID: job.ID, State: JobQueued,
		StatusURL: job.url(),
	})
}

// handleList lists the retained jobs of one kind, newest first.
func (s *Server) handleList(batch bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		statuses := make([]any, 0)
		for e := s.order.Back(); e != nil; e = e.Prev() {
			if job := e.Value.(*Job); job.batch == batch {
				statuses = append(statuses, job.status())
			}
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, statuses)
	}
}

func (s *Server) handleStatus(batch bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		job := s.lookup(w, r, batch)
		if job == nil {
			return
		}
		setProvenanceHeaders(w, job)
		writeJSON(w, http.StatusOK, job.status())
	}
}

func (s *Server) handleCancel(batch bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		job := s.lookup(w, r, batch)
		if job == nil {
			return
		}
		if !job.requestCancel() {
			writeError(w, http.StatusConflict, fmt.Sprintf("%s is already %s", noun(batch), job.State()))
			return
		}
		s.clearActive(job)
		writeJSON(w, http.StatusAccepted, map[string]any{"id": job.ID, "state": job.State()})
	}
}

// handleTable serves one spec's table of a done job: a study's only
// spec, or the batch spec the path names.
func (s *Server) handleTable(batch bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		job := s.lookup(w, r, batch)
		if job == nil {
			return
		}
		idx := 0
		if batch {
			var err error
			idx, err = strconv.Atoi(r.PathValue("spec"))
			if err != nil || idx < 0 || idx >= len(job.specs) {
				writeError(w, http.StatusNotFound, fmt.Sprintf("batch has specs 0..%d", len(job.specs)-1))
				return
			}
		}
		format := r.URL.Query().Get("format")
		if format == "" || format == "text" {
			format = "txt"
		}
		res := job.snapshotResult()
		if res == nil {
			writeError(w, http.StatusConflict, fmt.Sprintf("%s is %s, not done", noun(batch), job.State()))
			return
		}
		setProvenanceHeaders(w, job)
		out, ok := res.tables[idx][format]
		if !ok {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (supported: txt, csv, json)", format))
			return
		}
		switch format {
		case "json":
			w.Header().Set("Content-Type", "application/json")
		case "csv":
			w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		default:
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		}
		w.Write(out)
	}
}

// handleFeed serves a job's stream — a study's probe events, a batch's
// completed rows — as one JSON array, or with ?stream=1 as server-sent
// events.
func (s *Server) handleFeed(batch bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		job := s.lookup(w, r, batch)
		if job == nil {
			return
		}
		if r.URL.Query().Get("stream") != "" {
			streamFeed(w, r, job)
			return
		}
		if batch {
			job.mu.Lock()
			rows := append([]BatchRow(nil), job.rows...)
			job.mu.Unlock()
			writeJSON(w, http.StatusOK, rows)
			return
		}
		// A done study serves its result's log verbatim (for cache hits,
		// the log of the run that produced the cached table); a live one
		// serves whatever has been recorded so far.
		if res := job.snapshotResult(); res != nil {
			w.Header().Set("Content-Type", "application/json")
			w.Write(res.events)
			return
		}
		out, err := job.log.MarshalJSON()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(out)
	}
}

// streamFeed serves a job's stream as server-sent events: first the
// backlog, then live items until the job reaches a terminal state (or
// the client goes away), then one final `event: done` carrying the
// terminal state. A probe event is framed as `event: <kind>`, a batch
// row as `event: row` (its Seq rises by exactly one per frame); the
// data line is the item's JSON.
func streamFeed(w http.ResponseWriter, r *http.Request, job *Job) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	write := func(item any) bool {
		data, err := json.Marshal(item)
		if err != nil {
			return false
		}
		event := "row"
		if ev, ok := item.(probe.Event); ok {
			event = ev.Kind.String()
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	backlog, live := job.subscribe()
	for _, item := range backlog {
		if !write(item) {
			return
		}
	}
	for live != nil {
		select {
		case item, ok := <-live:
			if !ok {
				live = nil
			} else if !write(item) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
	fmt.Fprintf(w, "event: done\ndata: {\"state\":%q}\n\n", job.State())
	flusher.Flush()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, s.metrics.Render())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// setProvenanceHeaders stamps a done job's cache attribution onto the
// response; live jobs get no provenance (it is unknown until they run).
func setProvenanceHeaders(w http.ResponseWriter, job *Job) {
	cached, worldHit, ok := job.provenance()
	if !ok {
		return
	}
	if cached {
		w.Header().Set(HeaderCacheTier, "hit")
	} else {
		w.Header().Set(HeaderCacheTier, "miss")
	}
	w.Header().Set(HeaderWorldCache, worldCacheLabel(worldHit))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

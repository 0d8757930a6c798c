package wideleak

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/netsim"
	"repro/internal/wideleak/probe"
)

// The matrix scheduler plans a slice of RunSpecs as a deduplicated set
// of probe cells — one cell per (world, profile, probe) — and executes
// only the cells no other spec (or a previous batch, via the CellCache)
// has already produced. Per-spec tables are reassembled from cell
// outcomes byte-identical to a fresh per-spec run:
//
//   - Within one (world, profile) the union of every spec's execution
//     set runs as a sequential chain in registry order, so dependencies
//     are always satisfied and per-host request sequences stay
//     deterministic.
//   - Chains are independent (each app owns its deterministic rand and
//     fault streams), so they fan out over a bounded work-stealing
//     worker pool.
//   - A cell that fails with transport exhaustion memoizes the
//     annotation text instead of a result; reassembly walks each spec's
//     own execution order and annotates its row from the first failed
//     cell in that order — exactly what the sequential builder's
//     stop-at-first-failure would have reported. Any other error aborts
//     the batch, as it would abort a fresh run.

// CellOutcome is the memoized product of one probe cell. Exactly one of
// Result and Err is meaningful: Err carries the transport-exhaustion
// annotation (netsim.ErrRetriesExhausted chains only) the sequential
// builder would have degraded the row with. Outcomes are immutable once
// stored — tables share them by pointer.
type CellOutcome struct {
	Probe  string
	Result probe.Result
	Err    string
}

// CellCache is a bounded, concurrency-safe LRU of completed cell
// outcomes keyed by CellKey. It is the memoization layer shared across
// batches: a probe-subset request whose cells are all resident is
// reassembled without building a world or touching a device.
type CellCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List
	idx      map[string]*list.Element
	hits     int64
	misses   int64
}

type cellCacheEntry struct {
	key string
	out *CellOutcome
}

// NewCellCache returns an LRU holding up to capacity cell outcomes.
// Capacity <= 0 disables storage (every Get misses).
func NewCellCache(capacity int) *CellCache {
	return &CellCache{capacity: capacity, ll: list.New(), idx: make(map[string]*list.Element)}
}

// Get returns the outcome for a cell key, marking it most recently used.
func (c *CellCache) Get(key string) (*CellOutcome, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*cellCacheEntry).out, true
	}
	c.misses++
	return nil, false
}

// Put stores a cell outcome, evicting the least recently used entry
// beyond capacity.
func (c *CellCache) Put(key string, out *CellOutcome) {
	if c == nil || c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cellCacheEntry).out = out
		return
	}
	c.idx[key] = c.ll.PushFront(&cellCacheEntry{key: key, out: out})
	for c.ll.Len() > c.capacity {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.idx, last.Value.(*cellCacheEntry).key)
	}
}

// Len reports the resident cell count.
func (c *CellCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats reports lifetime hit/miss counters.
func (c *CellCache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// RowUpdate is delivered to BatchOptions.OnRow as each spec's row
// completes — which happens as soon as the last cell that spec needs
// for that app has an outcome, not when the whole batch finishes.
type RowUpdate struct {
	// Spec indexes the batch's canonical spec slice.
	Spec int
	// Row is the completed row, identical to the one the spec's final
	// table will carry.
	Row Row
}

// BatchOptions configures ExecuteBatch.
type BatchOptions struct {
	// Concurrency caps the chain worker pool; <= 0 selects
	// runtime.GOMAXPROCS(0). Like Study.Concurrency it never changes the
	// produced bytes.
	Concurrency int
	// Cache memoizes cell outcomes across batches. Nil still deduplicates
	// within the batch, but nothing survives it.
	Cache *CellCache
	// BuildStudy materializes the study for one world. It receives a
	// canonical spec carrying the world's seed and fault schedule plus the
	// union profile list of every spec sharing the world. Nil defaults to
	// RunSpec.Build. The service layer injects its snapshot/keypool tiers
	// here.
	BuildStudy func(spec RunSpec) (*Study, error)
	// OnRow, when set, is invoked serially (never concurrently) as rows
	// complete.
	OnRow func(RowUpdate)
}

// BatchStats quantifies the sharing a batch achieved.
type BatchStats struct {
	Specs           int `json:"specs"`
	CellsNeeded     int `json:"cells_needed"`   // spec-cell demands before dedup
	CellsPlanned    int `json:"cells_planned"`  // distinct cells after dedup
	CellsCached     int `json:"cells_cached"`   // satisfied from the LRU
	CellsExecuted   int `json:"cells_executed"` // actually ran a probe
	WorldsPlanned   int `json:"worlds_planned"`
	WorldsBuilt     int `json:"worlds_built"`
	Observations    int `json:"observations"`
	LegacyPlaybacks int `json:"legacy_playbacks"`
	// DeviceCells counts fixture cells actually manufactured by the
	// batch's built worlds, per device profile — the device-axis
	// dimension of the work the scheduler could not share. Empty when the
	// batch reassembled everything from memoized cells.
	DeviceCells map[string]int `json:"device_cells,omitempty"`
	// ManifestsServed counts CDN manifest serves by the batch's built
	// worlds, per dialect — the protocol-axis dimension of the work the
	// scheduler could not share. Empty when the batch reassembled
	// everything from memoized cells.
	ManifestsServed map[string]int `json:"manifests_served,omitempty"`
}

// Add folds o's counters into st, per-profile and per-dialect counts
// included, so stats from several batches (a fleet batch's parts, a
// daemon's lifetime) sum field by field.
func (st *BatchStats) Add(o BatchStats) {
	st.Specs += o.Specs
	st.CellsNeeded += o.CellsNeeded
	st.CellsPlanned += o.CellsPlanned
	st.CellsCached += o.CellsCached
	st.CellsExecuted += o.CellsExecuted
	st.WorldsPlanned += o.WorldsPlanned
	st.WorldsBuilt += o.WorldsBuilt
	st.Observations += o.Observations
	st.LegacyPlaybacks += o.LegacyPlaybacks
	st.DeviceCells = addCounts(st.DeviceCells, o.DeviceCells)
	st.ManifestsServed = addCounts(st.ManifestsServed, o.ManifestsServed)
}

// addCounts adds src into dst, allocating dst only when src has entries.
func addCounts(dst, src map[string]int) map[string]int {
	for k, n := range src {
		if dst == nil {
			dst = make(map[string]int, len(src))
		}
		dst[k] += n
	}
	return dst
}

// BatchResult carries the per-spec tables (index-aligned with Specs)
// and the sharing stats.
type BatchResult struct {
	Specs  []RunSpec
	Tables []*Table
	Stats  BatchStats
}

// plannedCell is one schedulable (world, profile, probe) unit. A cell
// belongs to exactly one chain, so out is written only by that chain's
// worker (or by the planner on a cache hit) before any reader sees it.
type plannedCell struct {
	key   string
	probe string
	out   *CellOutcome
}

// plannedWorld lazily materializes one world's study, shared by every
// chain (and spec) keyed to it.
type plannedWorld struct {
	key   string
	spec  RunSpec // seed + faults + union profiles
	once  sync.Once
	study *Study
	err   error
	built bool
}

// specRow tracks one (spec, profile) row's demand: the spec's own
// execution-order cells within the chain. All of them live in one chain,
// so completion checks run on that chain's worker goroutine.
type specRow struct {
	spec     int
	profile  string
	selected []string
	cells    []*plannedCell
	done     bool
}

// chain is the sequential execution unit: the union of every sharing
// spec's execution set for one (world, profile), in registry order.
type chain struct {
	world    *plannedWorld
	profile  string
	probeSet map[string]*plannedCell
	cells    []*plannedCell
	rows     []*specRow
}

// batchPlan is the dedup'd DAG: worlds at the root, chains per
// (world, profile), cells as leaves, spec rows as demand edges.
type batchPlan struct {
	specs  []RunSpec
	worlds map[string]*plannedWorld
	chains []*chain
	rows   [][]*specRow // per spec, in profile order
	needed int
}

// planBatch canonicalizes the specs and builds the cell DAG.
func planBatch(specs []RunSpec) (*batchPlan, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("wideleak: empty batch")
	}
	plan := &batchPlan{
		worlds: make(map[string]*plannedWorld),
		rows:   make([][]*specRow, len(specs)),
	}
	chainIdx := make(map[string]*chain)
	for i, spec := range specs {
		c, err := spec.Canonicalize()
		if err != nil {
			return nil, fmt.Errorf("wideleak: batch spec %d: %w", i, err)
		}
		plan.specs = append(plan.specs, c)
		selected, execution, err := probeRegistry.Resolve(c.Probes)
		if err != nil {
			return nil, fmt.Errorf("wideleak: batch spec %d: %w", i, err)
		}
		wk, err := c.WorldKey()
		if err != nil {
			return nil, fmt.Errorf("wideleak: batch spec %d: %w", i, err)
		}
		w, ok := plan.worlds[wk]
		if !ok {
			w = &plannedWorld{key: wk, spec: RunSpec{Seed: c.Seed, Devices: c.Devices, Dialect: c.Dialect, Faults: c.Faults, Concurrency: 1}}
			plan.worlds[wk] = w
		}
		for _, profile := range c.Profiles {
			union := false
			for _, have := range w.spec.Profiles {
				if have == profile {
					union = true
					break
				}
			}
			if !union {
				w.spec.Profiles = append(w.spec.Profiles, profile)
			}
			ckey := wk + "\x00" + profile
			ch, ok := chainIdx[ckey]
			if !ok {
				ch = &chain{world: w, profile: profile, probeSet: make(map[string]*plannedCell)}
				chainIdx[ckey] = ch
				plan.chains = append(plan.chains, ch)
			}
			row := &specRow{spec: i, profile: profile, selected: selected}
			for _, id := range execution {
				cell, ok := ch.probeSet[id]
				if !ok {
					cell = &plannedCell{key: CellKey(c.Seed, c.Faults, c.Devices, c.Dialect, profile, id), probe: id}
					ch.probeSet[id] = cell
				}
				row.cells = append(row.cells, cell)
				plan.needed++
			}
			ch.rows = append(ch.rows, row)
			plan.rows[i] = append(plan.rows[i], row)
		}
	}
	// Order each chain's union in registry order — a valid topological
	// order by registry construction, and the order a fresh run issuing
	// the same union would use.
	for _, ch := range plan.chains {
		for _, id := range probeRegistry.IDs() {
			if cell, ok := ch.probeSet[id]; ok {
				ch.cells = append(ch.cells, cell)
			}
		}
	}
	return plan, nil
}

// batchExec drives one plan over the worker pool.
type batchExec struct {
	plan   *batchPlan
	opts   BatchOptions
	ctx    context.Context
	cancel context.CancelFunc

	errMu    sync.Mutex
	firstErr error

	rowMu sync.Mutex // serializes OnRow emission

	cellsCached   int64
	cellsExecuted int64
	statsMu       sync.Mutex
}

func (e *batchExec) fail(err error) {
	e.errMu.Lock()
	if e.firstErr == nil {
		e.firstErr = err
	}
	e.errMu.Unlock()
	e.cancel()
}

func (e *batchExec) failed() bool {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.firstErr != nil
}

// studyFor materializes a planned world exactly once.
func (e *batchExec) studyFor(w *plannedWorld) (*Study, error) {
	w.once.Do(func() {
		build := e.opts.BuildStudy
		if build == nil {
			build = func(spec RunSpec) (*Study, error) { return spec.Build() }
		}
		w.study, w.err = build(w.spec)
		w.built = w.err == nil
	})
	return w.study, w.err
}

// runChain executes one chain's cells in order, consulting the LRU
// first and memoizing what it runs. Transport exhaustion is recorded
// and the chain continues — permanent-host failures are deterministic
// and later specs may need the surviving cells; any other error aborts
// the batch.
func (e *batchExec) runChain(ch *chain) {
	deps := make(probe.Results, len(ch.cells))
	var study *Study
	for _, cell := range ch.cells {
		if err := e.ctx.Err(); err != nil {
			e.fail(err)
			return
		}
		if e.failed() {
			return
		}
		if out, ok := e.opts.Cache.Get(cell.key); ok {
			cell.out = out
			if out.Result != nil {
				deps[cell.probe] = out.Result
			}
			e.statsMu.Lock()
			e.cellsCached++
			e.statsMu.Unlock()
			e.completeCell(ch)
			continue
		}
		if study == nil {
			var err error
			if study, err = e.studyFor(ch.world); err != nil {
				e.fail(err)
				return
			}
		}
		res, err := study.runProbe(e.ctx, cell.probe, ch.profile, deps)
		var out *CellOutcome
		switch {
		case err == nil:
			out = &CellOutcome{Probe: cell.probe, Result: res}
			deps[cell.probe] = res
		case errors.Is(err, netsim.ErrRetriesExhausted):
			out = &CellOutcome{Probe: cell.probe, Err: err.Error()}
		default:
			e.fail(err)
			return
		}
		cell.out = out
		e.opts.Cache.Put(cell.key, out)
		e.statsMu.Lock()
		e.cellsExecuted++
		e.statsMu.Unlock()
		e.completeCell(ch)
	}
}

// completeCell scans the chain's rows after one more cell gained an
// outcome and emits every row that just became complete.
func (e *batchExec) completeCell(ch *chain) {
	for _, row := range ch.rows {
		if row.done {
			continue
		}
		ready := true
		for _, cell := range row.cells {
			if cell.out == nil {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		row.done = true
		if e.opts.OnRow != nil {
			e.rowMu.Lock()
			e.opts.OnRow(RowUpdate{Spec: row.spec, Row: assembleRow(row)})
			e.rowMu.Unlock()
		}
	}
}

// assembleRow reproduces the sequential builder's row semantics from
// cell outcomes: the first transport-failed cell in the spec's own
// execution order annotates the row (a fresh run would have stopped
// there), otherwise the selected results are gathered.
func assembleRow(row *specRow) Row {
	for _, cell := range row.cells {
		if cell.out.Err != "" {
			return Row{App: row.profile, Err: cell.out.Err}
		}
	}
	out := Row{App: row.profile, Probes: row.selected, Results: make(map[string]probe.Result, len(row.selected))}
	byProbe := make(map[string]*plannedCell, len(row.cells))
	for _, cell := range row.cells {
		byProbe[cell.probe] = cell
	}
	for _, id := range row.selected {
		out.Results[id] = byProbe[id].out.Result
	}
	return out
}

// chainDeque is one worker's deque: the owner pushes and pops at the
// tail, idle workers steal from the head.
type chainDeque struct {
	mu    sync.Mutex
	items []*chain
}

func (d *chainDeque) popTail() *chain {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return nil
	}
	ch := d.items[len(d.items)-1]
	d.items = d.items[:len(d.items)-1]
	return ch
}

func (d *chainDeque) stealHead() *chain {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return nil
	}
	ch := d.items[0]
	d.items = d.items[1:]
	return ch
}

// ExecuteBatch plans specs as a dedup'd cell DAG and executes it,
// returning per-spec tables byte-identical to what each spec's own
// Build + BuildTable would have produced. The chains fan out over a
// bounded work-stealing pool: chains are dealt round-robin to
// per-worker deques, owners work LIFO for world affinity, and a worker
// whose deque drains steals FIFO from its neighbours — no new chains
// are ever spawned mid-run, so empty deques everywhere means done.
func ExecuteBatch(ctx context.Context, specs []RunSpec, opts BatchOptions) (*BatchResult, error) {
	plan, err := planBatch(specs)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	e := &batchExec{plan: plan, opts: opts, ctx: ctx, cancel: cancel}

	workers := opts.Concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(plan.chains) {
		workers = len(plan.chains)
	}
	if workers < 1 {
		workers = 1
	}
	// Deal chains grouped by world as they were planned: consecutive
	// chains usually share a world, so LIFO owners keep world affinity
	// while stealing redistributes whole chains when load skews.
	deques := make([]*chainDeque, workers)
	for i := range deques {
		deques[i] = &chainDeque{}
	}
	for i, ch := range plan.chains {
		d := deques[i%workers]
		d.items = append(d.items, ch)
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func(self int) {
			defer wg.Done()
			for {
				ch := deques[self].popTail()
				if ch == nil {
					for off := 1; off < workers && ch == nil; off++ {
						ch = deques[(self+off)%workers].stealHead()
					}
				}
				if ch == nil || e.failed() {
					return
				}
				e.runChain(ch)
			}
		}(i)
	}
	wg.Wait()

	if e.firstErr != nil {
		return nil, e.firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &BatchResult{Specs: plan.specs}
	for i, spec := range plan.specs {
		selected, _, err := probeRegistry.Resolve(spec.Probes)
		if err != nil {
			return nil, err
		}
		t := &Table{Probes: selected}
		for _, row := range plan.rows[i] {
			t.Rows = append(t.Rows, assembleRow(row))
		}
		res.Tables = append(res.Tables, t)
	}

	res.Stats = BatchStats{
		Specs:         len(plan.specs),
		CellsNeeded:   plan.needed,
		CellsCached:   int(e.cellsCached),
		CellsExecuted: int(e.cellsExecuted),
		WorldsPlanned: len(plan.worlds),
	}
	for _, ch := range plan.chains {
		res.Stats.CellsPlanned += len(ch.cells)
	}
	for _, w := range plan.worlds {
		if w.built {
			res.Stats.WorldsBuilt++
			res.Stats.Observations += w.study.Observations()
			res.Stats.LegacyPlaybacks += w.study.LegacyPlaybacks()
			for name, n := range w.study.World.DeviceCellCounts() {
				if res.Stats.DeviceCells == nil {
					res.Stats.DeviceCells = make(map[string]int)
				}
				res.Stats.DeviceCells[name] += n
			}
			for dialect, n := range w.study.World.ManifestServeCounts() {
				if res.Stats.ManifestsServed == nil {
					res.Stats.ManifestsServed = make(map[string]int)
				}
				res.Stats.ManifestsServed[dialect] += n
			}
		}
	}
	return res, nil
}

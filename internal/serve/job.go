package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/wideleak"
	"repro/internal/wideleak/probe"
)

// JobState is a job's lifecycle phase.
type JobState string

// Job states. Queued and Running are live; Done, Failed and Canceled are
// terminal. A cache-hit submission mints a job that is born Done.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// studyResult is one completed run, fully encoded: every spec's table in
// every supported format, the run's sharing stats and, for a study, the
// marshaled event log. Results are immutable once built, so the cache
// shares them freely.
type studyResult struct {
	tables     []map[string][]byte // per spec: format → bytes (txt, csv, json)
	stats      wideleak.BatchStats
	events     []byte // a study's probe.Log marshaled as JSON
	eventCount int
	rows       int // rows of the first spec's table

	wall    time.Duration
	virtual time.Duration

	// worldHit records whether the run restored a tier-2 world snapshot
	// (true) or built its world cold (false) — the provenance the fleet
	// load harness reads back through headers and job status.
	worldHit bool

	// cellsRecombined records that the run was assembled purely from
	// memoized probe cells: no world was built or restored and no probe
	// executed — the cell-aware result tier's zero-work path.
	cellsRecombined bool
}

// Job is one submission: a study (one spec, POST /v1/studies) or a batch
// (N specs, POST /v1/batches). Both share this lifecycle — queued →
// running → done/failed/canceled — and differ only in what they stream:
// a study its probe events, a batch its completed rows.
type Job struct {
	ID          string
	Key         string // a study's canonical RunSpec.Key; empty for a batch
	specs       []wideleak.RunSpec
	batch       bool
	concurrency int

	// count tallies the job's terminal state in the metrics; finishLocked
	// calls it exactly once per job that was ever live.
	count func(JobState)

	log *probe.Log // a study's probe events

	mu        sync.Mutex
	state     JobState
	cached    bool
	errText   string
	result    *studyResult
	rows      []BatchRow // a batch's completed rows
	cancel    context.CancelFunc
	cancelled bool
	subs      []chan any // live stream subscribers: probe.Event or BatchRow

	submitted time.Time
	finished  time.Time
}

// State returns the current lifecycle phase.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// start transitions queued → running and installs the cancel hook. It
// reports false when the job was already cancelled (or otherwise
// terminal) before a worker picked it up.
func (j *Job) start(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.cancel = cancel
	if j.cancelled {
		cancel()
	}
	return true
}

// finish moves the job to a terminal state, publishes the result and
// closes every stream subscription. Finishing a job twice is a no-op (a
// queued job cancelled by the client stays cancelled even when a worker
// later drains it off the queue).
func (j *Job) finish(state JobState, res *studyResult, errText string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finishLocked(state, res, errText)
}

func (j *Job) finishLocked(state JobState, res *studyResult, errText string) {
	if j.state.terminal() {
		return
	}
	j.state = state
	j.result = res
	j.errText = errText
	j.finished = time.Now()
	j.cancel = nil
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	j.count(state)
}

// requestCancel asks the job to stop: a running job has its context
// cancelled, a queued job is finished as canceled immediately. Returns
// false when the job is already terminal.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return false
	}
	j.cancelled = true
	if cancel := j.cancel; cancel != nil {
		j.mu.Unlock()
		cancel()
		return true
	}
	// Still queued: terminal-ize in place; the worker will skip it.
	j.finishLocked(JobCanceled, nil, "canceled before start")
	j.mu.Unlock()
	return true
}

// publish fans one stream item out to live subscribers; j.mu is held.
// Slow subscribers never block the run: a full channel drops the item
// for that subscriber only (the JSON endpoints re-read the backlog, so
// nothing is lost at rest).
func (j *Job) publish(item any) {
	for _, ch := range j.subs {
		select {
		case ch <- item:
		default:
		}
	}
}

// record appends one pipeline event to a study's log and streams the
// stamped copy (boxed for the stream only when someone is listening). A
// batch keeps no event log: its stream is its rows.
func (j *Job) record(ev probe.Event) probe.Event {
	if j.batch {
		return ev
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	stamped := j.log.Append(ev)
	if len(j.subs) > 0 {
		j.publish(stamped)
	}
	return stamped
}

// appendRow stamps the batch sequence number onto one completed row,
// records it and streams it. The matrix executor calls OnRow serially,
// so Seq order is also delivery order.
func (j *Job) appendRow(row BatchRow) {
	j.mu.Lock()
	defer j.mu.Unlock()
	row.Seq = int64(len(j.rows) + 1)
	j.rows = append(j.rows, row)
	j.publish(row)
}

// subscribe returns a snapshot of the stream so far plus a channel
// carrying every later item, closed when the job finishes. A nil
// channel means the job was already terminal — the snapshot is the
// whole stream.
func (j *Job) subscribe() ([]any, <-chan any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var backlog []any
	if j.batch {
		for _, row := range j.rows {
			backlog = append(backlog, row)
		}
	} else {
		for _, ev := range j.log.Events() {
			backlog = append(backlog, ev)
		}
	}
	if j.state.terminal() {
		return backlog, nil
	}
	// Buffered so a burst of events does not drop frames for a reader
	// that is only briefly behind.
	ch := make(chan any, 256)
	j.subs = append(j.subs, ch)
	return backlog, ch
}

// url is the job's status path.
func (j *Job) url() string {
	if j.batch {
		return "/v1/batches/" + j.ID
	}
	return "/v1/studies/" + j.ID
}

// snapshotResult returns the published result, nil until Done.
func (j *Job) snapshotResult() *studyResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobDone {
		return nil
	}
	return j.result
}

// provenance reports a done study's cache attribution — whether the job
// itself was served from the tier-1 result cache, and whether the run
// that produced its bytes restored a tier-2 world snapshot. ok is false
// until the job is done, and always for a batch.
func (j *Job) provenance() (cached, worldHit, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.batch || j.state != JobDone || j.result == nil {
		return false, false, false
	}
	return j.cached, j.result.worldHit, true
}

// jobStatus is the wire shape of GET /v1/studies/{id}.
type jobStatus struct {
	ID      string           `json:"id"`
	State   JobState         `json:"state"`
	Cached  bool             `json:"cached"`
	Request wideleak.RunSpec `json:"request"`
	Error   string           `json:"error,omitempty"`

	Rows            int   `json:"rows,omitempty"`
	Observations    int   `json:"observations"`
	LegacyPlaybacks int   `json:"legacy_playbacks"`
	Events          int   `json:"events"`
	WallMS          int64 `json:"wall_ms,omitempty"`
	VirtualMS       int64 `json:"virtual_ms,omitempty"`

	// WorldCache reports the done run's tier-2 provenance: "hit" when it
	// restored a warmed world snapshot, "miss" when it built cold. Empty
	// until the job is done.
	WorldCache string `json:"world_cache,omitempty"`

	// CellCache is "hit" when the run was reassembled purely from
	// memoized probe cells (zero device work without a tier-1 hit).
	CellCache string `json:"cell_cache,omitempty"`

	TableURL  string `json:"table_url,omitempty"`
	EventsURL string `json:"events_url,omitempty"`
}

// batchStatus is the wire shape of GET /v1/batches/{id}.
type batchStatus struct {
	ID       string              `json:"id"`
	State    JobState            `json:"state"`
	Error    string              `json:"error,omitempty"`
	Specs    []wideleak.RunSpec  `json:"specs"`
	RowsDone int                 `json:"rows_done"`
	Stats    wideleak.BatchStats `json:"stats,omitempty"`
	WallMS   int64               `json:"wall_ms,omitempty"`

	RowsURL   string   `json:"rows_url"`
	TableURLs []string `json:"table_urls,omitempty"`
}

// status snapshots the job as its kind's wire document. A cached study
// reports zero observations and playbacks: it did no device work of its
// own. A batch's wall time runs from submission to its terminal state.
func (j *Job) status() any {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.batch {
		st := batchStatus{
			ID:       j.ID,
			State:    j.state,
			Error:    j.errText,
			Specs:    j.specs,
			RowsDone: len(j.rows),
			RowsURL:  j.url() + "/rows",
		}
		if j.state.terminal() {
			st.WallMS = j.finished.Sub(j.submitted).Milliseconds()
		}
		if j.state == JobDone {
			st.Stats = j.result.stats
			for i := range j.specs {
				st.TableURLs = append(st.TableURLs, fmt.Sprintf("%s/tables/%d", j.url(), i))
			}
		}
		return st
	}
	st := jobStatus{
		ID:      j.ID,
		State:   j.state,
		Cached:  j.cached,
		Request: j.specs[0],
		Error:   j.errText,
		Events:  j.log.Len(),
	}
	if res := j.result; res != nil {
		st.Rows = res.rows
		st.Events = res.eventCount
		st.WallMS = res.wall.Milliseconds()
		st.VirtualMS = res.virtual.Milliseconds()
		st.WorldCache = worldCacheLabel(res.worldHit)
		if res.cellsRecombined {
			st.CellCache = "hit"
		}
		if !j.cached {
			st.Observations = res.stats.Observations
			st.LegacyPlaybacks = res.stats.LegacyPlaybacks
		}
	}
	if j.state == JobDone {
		st.TableURL = j.url() + "/table"
		st.EventsURL = j.url() + "/events"
	}
	return st
}

// worldCacheLabel renders tier-2 provenance the way headers and job
// status spell it.
func worldCacheLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

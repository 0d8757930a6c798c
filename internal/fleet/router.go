package fleet

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/wideleak"
)

// Fleet-level response headers stamped by the router.
const (
	// HeaderReplica names the replica that served (or is running) the
	// request — the affinity tests assert it.
	HeaderReplica = "X-Fleet-Replica"
	// HeaderRoute is "owner" when the submission landed on its ring
	// owner, "spill" when it walked to a successor.
	HeaderRoute = "X-Fleet-Route"
)

// Options tunes the router. Zero values select the defaults.
type Options struct {
	// VNodes is the virtual-node count per replica on the hash ring
	// (default 128).
	VNodes int
	// LoadFactor bounds per-replica load during routing: a submission
	// skips past an owner whose outstanding proxied requests exceed
	// LoadFactor × fleet average + 1 (default 1.25).
	LoadFactor float64
	// HealthInterval is the active /healthz probe period (default 500ms).
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe (default 1s).
	HealthTimeout time.Duration
	// FailThreshold is how many consecutive failures (active or passive)
	// flip a replica to unhealthy (default 1: any transport error).
	FailThreshold int
}

func (o Options) withDefaults() Options {
	if o.VNodes <= 0 {
		o.VNodes = 128
	}
	if o.LoadFactor <= 1 {
		o.LoadFactor = 1.25
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = 500 * time.Millisecond
	}
	if o.HealthTimeout <= 0 {
		o.HealthTimeout = time.Second
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 1
	}
	return o
}

// Member names one wideleakd replica for the router.
type Member struct {
	ID  string // stable ring identity ("r0", "r1", ...)
	URL string // base URL, e.g. "http://127.0.0.1:43127"
}

// replica is the router's live view of one member.
type replica struct {
	id   string
	base string

	healthy     atomic.Bool
	consecFails atomic.Int64
	inflight    atomic.Int64 // outstanding proxied requests (the load bound's input)
}

func (r *replica) isHealthy() bool { return r.healthy.Load() }

// placement is where one replica-side job lives: a study's current
// replica (failover moves it) or one part of a fanned-out batch.
type placement struct {
	mu        sync.Mutex // guards replicaID/remoteID across failovers
	replicaID string
	remoteID  string
	specIdx   []int // fleet spec index of each replica-local spec
}

func (p *placement) location() (replicaID, remoteID string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.replicaID, p.remoteID
}

// record is the router's entry for one submission: a study, placed on
// one replica and failed over as a whole, or a batch, split into one
// part per world owner.
type record struct {
	id    string
	batch bool
	specs []wideleak.RunSpec // a batch's canonical specs
	parts []*placement       // a study has exactly one

	// A study's failover inputs: its ring address and canonical spec
	// JSON, replayed on the successor.
	worldKey string
	specBody []byte

	// specPart[i] locates batch spec i: which part, and its index there.
	specPart []struct{ part, idx int }

	// terminal is set once a response the router relayed or merged
	// showed the record finished. Only terminal records are evicted: the
	// router cannot see a replica's queue, so one whose end it never
	// observed counts as live.
	terminal atomic.Bool
}

// maxRecords bounds the record table: past it, the oldest terminal
// records are forgotten and their IDs answer 404.
const maxRecords = 1024

// note marks the record terminal when a state it was seen in — a
// replica's, or a batch's merged one — is final.
func (rec *record) note(state string) {
	if state == "done" || state == "failed" || state == "canceled" {
		rec.terminal.Store(true)
	}
}

// Router is the fleet front end: it owns the ring, the replica health
// view, the fleet job table and the fleet metrics. Create with
// NewRouter, expose via Handler, stop with Close.
type Router struct {
	opts    Options
	ring    *ring
	metrics *Metrics

	client       *http.Client // proxying (no overall timeout: SSE streams)
	healthClient *http.Client

	mu       sync.Mutex
	replicas map[string]*replica
	records  map[string]*record // retained studies and batches by ID
	order    *list.List         // of *record, oldest submission first
	seq      int64

	closed chan struct{}
	wg     sync.WaitGroup
}

// NewRouter builds a router over a fixed member set and starts the
// active health loop.
func NewRouter(members []Member, opts Options) (*Router, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("fleet: no members")
	}
	opts = opts.withDefaults()
	ids := make([]string, 0, len(members))
	replicas := make(map[string]*replica, len(members))
	for _, m := range members {
		if m.ID == "" || m.URL == "" {
			return nil, fmt.Errorf("fleet: member needs both id and url, got %+v", m)
		}
		if _, dup := replicas[m.ID]; dup {
			return nil, fmt.Errorf("fleet: duplicate member id %q", m.ID)
		}
		ids = append(ids, m.ID)
		rep := &replica{id: m.ID, base: strings.TrimRight(m.URL, "/")}
		rep.healthy.Store(true)
		replicas[m.ID] = rep
	}
	rt := &Router{
		opts:     opts,
		ring:     newRing(ids, opts.VNodes),
		replicas: replicas,
		records:  make(map[string]*record),
		order:    list.New(),
		client: &http.Client{Transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			MaxIdleConnsPerHost:   64,
			ResponseHeaderTimeout: 2 * time.Minute,
		}},
		healthClient: &http.Client{Timeout: opts.HealthTimeout},
		closed:       make(chan struct{}),
	}
	rt.metrics = newFleetMetrics(rt.healthSnapshot, rt.inflightSnapshot, rt.ring.shares)
	rt.wg.Add(1)
	go rt.healthLoop()
	return rt, nil
}

// Close stops the health loop. In-flight proxied requests finish on
// their own.
func (rt *Router) Close() {
	select {
	case <-rt.closed:
	default:
		close(rt.closed)
	}
	rt.wg.Wait()
}

// Metrics exposes the fleet instrumentation.
func (rt *Router) Metrics() *Metrics { return rt.metrics }

// Sequence returns the ring-walk order for a world key: element 0 is
// the owner, element 1 the spill successor. Tests assert against it.
func (rt *Router) Sequence(worldKey string) []string { return rt.ring.sequence(worldKey) }

// OwnerOf returns the replica owning a world key.
func (rt *Router) OwnerOf(worldKey string) string { return rt.ring.owner(worldKey) }

// HealthyIDs lists the replicas the router currently considers healthy.
func (rt *Router) HealthyIDs() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var ids []string
	for id, rep := range rt.replicas {
		if rep.isHealthy() {
			ids = append(ids, id)
		}
	}
	return ids
}

func (rt *Router) healthSnapshot() map[string]bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]bool, len(rt.replicas))
	for id, rep := range rt.replicas {
		out[id] = rep.isHealthy()
	}
	return out
}

func (rt *Router) inflightSnapshot() map[string]int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]int64, len(rt.replicas))
	for id, rep := range rt.replicas {
		out[id] = rep.inflight.Load()
	}
	return out
}

// healthLoop actively probes every replica's /healthz on a fixed period.
// Passive observations (transport errors while proxying) flip health
// immediately; the active loop both detects silent death and revives a
// replica that recovered.
func (rt *Router) healthLoop() {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.opts.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.closed:
			return
		case <-ticker.C:
		}
		rt.mu.Lock()
		reps := make([]*replica, 0, len(rt.replicas))
		for _, rep := range rt.replicas {
			reps = append(reps, rep)
		}
		rt.mu.Unlock()
		var wg sync.WaitGroup
		for _, rep := range reps {
			wg.Add(1)
			go func(rep *replica) {
				defer wg.Done()
				rt.probe(rep)
			}(rep)
		}
		wg.Wait()
	}
}

func (rt *Router) probe(rep *replica) {
	resp, err := rt.healthClient.Get(rep.base + "/healthz")
	if err != nil {
		rt.noteFailure(rep)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rt.noteFailure(rep) // draining replicas answer 503 and stop getting traffic
		return
	}
	rt.noteSuccess(rep)
}

func (rt *Router) noteFailure(rep *replica) {
	if rep.consecFails.Add(1) >= int64(rt.opts.FailThreshold) {
		rep.healthy.Store(false)
	}
}

func (rt *Router) noteSuccess(rep *replica) {
	rep.consecFails.Store(0)
	rep.healthy.Store(true)
}

// Handler returns the fleet HTTP front end. The API mirrors wideleakd's,
// with fleet-level job IDs.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/studies", rt.handleSubmit)
	mux.HandleFunc("GET /v1/studies", rt.handleList)
	mux.HandleFunc("GET /v1/studies/{id}", rt.handleJob(""))
	mux.HandleFunc("DELETE /v1/studies/{id}", rt.handleJob(""))
	mux.HandleFunc("GET /v1/studies/{id}/table", rt.handleJob("/table"))
	mux.HandleFunc("GET /v1/studies/{id}/events", rt.handleJob("/events"))
	mux.HandleFunc("POST /v1/batches", rt.handleBatchSubmit)
	mux.HandleFunc("GET /v1/batches/{id}", rt.handleBatchStatus)
	mux.HandleFunc("DELETE /v1/batches/{id}", rt.handleBatchCancel)
	mux.HandleFunc("GET /v1/batches/{id}/rows", rt.handleBatchRows)
	mux.HandleFunc("GET /v1/batches/{id}/tables/{spec}", rt.handleBatchTable)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	return rt.timed(mux)
}

// timed wraps the mux with the fleet latency histogram.
func (rt *Router) timed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		elapsed := time.Since(start).Seconds()
		rt.metrics.observeRequest(elapsed)
		if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/studies") {
			rt.metrics.observeSubmit(elapsed)
		}
	})
}

// remoteSubmit is the slice of wideleakd's submit response the router
// needs to mint its own.
type remoteSubmit struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Cached    bool   `json:"cached"`
	Coalesced bool   `json:"coalesced,omitempty"`
}

// fleetSubmitResponse is the router's wire shape for POST /v1/studies —
// wideleakd's, with the fleet job ID substituted.
type fleetSubmitResponse struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Cached    bool   `json:"cached"`
	Coalesced bool   `json:"coalesced,omitempty"`
	Replica   string `json:"replica"`
	StatusURL string `json:"status_url"`
}

func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
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
	worldKey, err := canonical.WorldKey()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	body, err := json.Marshal(canonical)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}

	rep, remote, hdr, status, routeErr := rt.submitToReplica(r.Context(), worldKey, body)
	switch routeErr {
	case nil:
	case errAllShed:
		rt.metrics.addShed()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "every replica shed the submission")
		return
	case errNoReplica:
		rt.metrics.addUnroutable()
		writeError(w, http.StatusServiceUnavailable, "no healthy replica")
		return
	default:
		// A non-shed replica response the fleet cannot improve on (e.g. a
		// 400 the local canonicalization missed); relay it.
		writeError(w, status, routeErr.Error())
		return
	}

	rec := &record{
		parts:    []*placement{{replicaID: rep.id, remoteID: remote.ID}},
		worldKey: worldKey,
		specBody: body,
	}
	rec.note(remote.State)
	rt.retain(rec, key)

	owner := rt.ring.owner(worldKey)
	route := "owner"
	if rep.id != owner {
		route = "spill"
	}
	rt.metrics.addRouted(rep.id, rep.id != owner)
	copyProvenanceHeaders(w.Header(), hdr)
	w.Header().Set(HeaderReplica, rep.id)
	w.Header().Set(HeaderRoute, route)
	writeJSON(w, status, fleetSubmitResponse{
		ID: rec.id, State: remote.State, Cached: remote.Cached, Coalesced: remote.Coalesced,
		Replica: rep.id, StatusURL: "/v1/studies/" + rec.id,
	})
}

var (
	errAllShed   = fmt.Errorf("fleet: every candidate replica shed")
	errNoReplica = fmt.Errorf("fleet: no healthy replica")
)

// submitToReplica routes a canonical spec onto the ring: the world key's
// owner first, then — on transport failure, 429 shed, or 503 drain —
// each successor in ring order. Bounded load skips an owner whose
// outstanding requests exceed LoadFactor × fleet average + 1.
func (rt *Router) submitToReplica(ctx context.Context, worldKey string, body []byte) (*replica, remoteSubmit, http.Header, int, error) {
	candidates := rt.submitOrder(worldKey)
	if len(candidates) == 0 {
		return nil, remoteSubmit{}, nil, 0, errNoReplica
	}
	sawShed := false
	for _, rep := range candidates {
		resp, err := rt.forward(ctx, rep, http.MethodPost, "/v1/studies", bytes.NewReader(body))
		if err != nil {
			rt.metrics.addProxyError(rep.id)
			rt.noteFailure(rep)
			continue
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			drainBody(resp)
			rt.metrics.addReplicaShed(rep.id)
			sawShed = true
			continue
		case resp.StatusCode == http.StatusServiceUnavailable:
			drainBody(resp)
			rt.noteFailure(rep) // draining: let the health loop confirm
			continue
		case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted:
			var remote remoteSubmit
			err := json.NewDecoder(resp.Body).Decode(&remote)
			hdr := resp.Header
			status := resp.StatusCode
			drainBody(resp)
			if err != nil || remote.ID == "" {
				rt.noteFailure(rep)
				continue
			}
			rt.noteSuccess(rep)
			return rep, remote, hdr, status, nil
		default:
			// The replica answered coherently but negatively (400, ...).
			var e struct {
				Error string `json:"error"`
			}
			json.NewDecoder(resp.Body).Decode(&e)
			status := resp.StatusCode
			drainBody(resp)
			if e.Error == "" {
				e.Error = http.StatusText(status)
			}
			return nil, remoteSubmit{}, nil, status, fmt.Errorf("%s", e.Error)
		}
	}
	if sawShed {
		return nil, remoteSubmit{}, nil, 0, errAllShed
	}
	return nil, remoteSubmit{}, nil, 0, errNoReplica
}

// submitOrder builds the attempt order for a world key: healthy replicas
// in ring-walk order, rotated past any over-loaded prefix (bounded-load
// consistent hashing); the skipped prefix stays reachable as a last
// resort. With no healthy replica at all, every replica is tried in ring
// order — a passive success revives one.
func (rt *Router) submitOrder(worldKey string) []*replica {
	seq := rt.ring.sequence(worldKey)
	rt.mu.Lock()
	healthy := make([]*replica, 0, len(seq))
	all := make([]*replica, 0, len(seq))
	for _, id := range seq {
		rep := rt.replicas[id]
		all = append(all, rep)
		if rep.isHealthy() {
			healthy = append(healthy, rep)
		}
	}
	rt.mu.Unlock()
	if len(healthy) == 0 {
		return all
	}
	var total int64
	for _, rep := range healthy {
		total += rep.inflight.Load()
	}
	limit := int64(rt.opts.LoadFactor*float64(total)/float64(len(healthy))) + 1
	start := 0
	for i, rep := range healthy {
		if rep.inflight.Load() <= limit {
			start = i
			break
		}
	}
	order := make([]*replica, 0, len(healthy))
	order = append(order, healthy[start:]...)
	return append(order, healthy[:start]...)
}

// forward performs one proxied request against a replica, accounting
// its in-flight load.
func (rt *Router) forward(ctx context.Context, rep *replica, method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, rep.base+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rep.inflight.Add(1)
	resp, err := rt.client.Do(req)
	if err != nil {
		rep.inflight.Add(-1)
		return nil, err
	}
	// The caller owns resp.Body; wrap Close to release the load slot when
	// the body is fully consumed or abandoned.
	resp.Body = &accountedBody{ReadCloser: resp.Body, release: func() { rep.inflight.Add(-1) }}
	return resp, nil
}

// accountedBody releases a replica load slot exactly once on Close.
type accountedBody struct {
	io.ReadCloser
	once    sync.Once
	release func()
}

func (b *accountedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.release)
	return err
}

func drainBody(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// retain assigns a record the next ID of the router's one sequence
// (fNNNNNN-<key prefix> for a study, fbNNNNNN for a batch), adds it to
// the record table, and forgets the oldest terminal records until the
// table is back within maxRecords.
func (rt *Router) retain(rec *record, key string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.seq++
	rec.id = fmt.Sprintf("f%06d-%.8s", rt.seq, key)
	if rec.batch {
		rec.id = fmt.Sprintf("fb%06d", rt.seq)
	}
	rt.records[rec.id] = rec
	rt.order.PushBack(rec)
	for e := rt.order.Front(); e != nil && len(rt.records) > maxRecords; {
		next := e.Next()
		if old := e.Value.(*record); old.terminal.Load() {
			rt.order.Remove(e)
			delete(rt.records, old.id)
		}
		e = next
	}
}

// lookup finds a retained record of the route's kind, answering 404
// when there is none (never submitted, or evicted).
func (rt *Router) lookup(w http.ResponseWriter, r *http.Request, batch bool) *record {
	rt.mu.Lock()
	rec := rt.records[r.PathValue("id")]
	rt.mu.Unlock()
	if rec == nil || rec.batch != batch {
		noun := "study"
		if batch {
			noun = "batch"
		}
		writeError(w, http.StatusNotFound, "no such "+noun)
		return nil
	}
	return rec
}

// replica returns the member with the given ID, nil if unknown.
func (rt *Router) replica(id string) *replica {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.replicas[id]
}

// handleJob proxies one fleet study's status/table/events/cancel to the
// replica currently running it, failing over to a ring successor when
// that replica is gone.
func (rt *Router) handleJob(suffix string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := rt.lookup(w, r, false)
		if rec == nil {
			return
		}
		// One failover attempt per request: if the study's replica is
		// gone, resubmit its spec to the ring successor, then proxy there.
		for attempt := 0; attempt < 2; attempt++ {
			repID, remoteID := rec.parts[0].location()
			rep := rt.replica(repID)
			if rep == nil {
				writeError(w, http.StatusInternalServerError, "job mapped to unknown replica")
				return
			}
			if !rep.isHealthy() {
				if !rt.failover(r.Context(), rec, w) {
					return
				}
				continue
			}
			path := "/v1/studies/" + remoteID + suffix
			if r.URL.RawQuery != "" {
				path += "?" + r.URL.RawQuery
			}
			resp, err := rt.forward(r.Context(), rep, r.Method, path, nil)
			if err != nil {
				if r.Context().Err() != nil {
					return // client went away, not replica death
				}
				rt.metrics.addProxyError(rep.id)
				rt.noteFailure(rep)
				if !rt.failover(r.Context(), rec, w) {
					return
				}
				continue
			}
			switch {
			case suffix == "/table" && resp.StatusCode == http.StatusOK:
				rec.terminal.Store(true)
			case suffix == "" && resp.StatusCode/100 == 2:
				// A status or cancel document: note its state on the way.
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				var doc struct {
					State string `json:"state"`
				}
				if err == nil && json.Unmarshal(raw, &doc) == nil {
					rec.note(doc.State)
				}
				resp.Body = io.NopCloser(bytes.NewReader(raw))
			}
			relayResponse(w, resp, rep.id)
			return
		}
		writeError(w, http.StatusBadGateway, "replica lost and failover did not converge")
	}
}

// failover reroutes a study whose replica died: its canonical spec is
// resubmitted through the ring (the dead replica is unhealthy, so the
// walk lands on its successor) and the study is remapped. Determinism
// makes the rerun byte-identical, so the client never notices beyond
// latency. Reports false after writing an error response.
func (rt *Router) failover(ctx context.Context, rec *record, w http.ResponseWriter) bool {
	p := rec.parts[0]
	p.mu.Lock()
	defer p.mu.Unlock()
	// Another request may have failed this study over already; if its
	// current replica is healthy again, just retry against it.
	if cur := rt.replica(p.replicaID); cur != nil && cur.isHealthy() {
		return true
	}
	rep, remote, _, _, err := rt.submitToReplica(ctx, rec.worldKey, rec.specBody)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Sprintf("replica lost and failover failed: %v", err))
		return false
	}
	p.replicaID = rep.id
	p.remoteID = remote.ID
	rt.metrics.addFailover()
	rt.metrics.addRouted(rep.id, rep.id != rt.ring.owner(rec.worldKey))
	return true
}

// relayResponse copies a replica response to the client, flushing
// eagerly for event streams so SSE stays live through the router.
func relayResponse(w http.ResponseWriter, resp *http.Response, replicaID string) {
	defer resp.Body.Close()
	copyProvenanceHeaders(w.Header(), resp.Header)
	for _, h := range []string{"Content-Type", "Cache-Control", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(HeaderReplica, replicaID)
	w.WriteHeader(resp.StatusCode)
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		flushCopy(w, resp.Body)
		return
	}
	io.Copy(w, resp.Body)
}

// flushCopy streams body to the client, flushing after every chunk.
func flushCopy(w http.ResponseWriter, body io.Reader) {
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 4096)
	for {
		n, err := body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// copyProvenanceHeaders forwards the daemon's cache-attribution headers.
func copyProvenanceHeaders(dst, src http.Header) {
	for _, h := range []string{serve.HeaderCacheTier, serve.HeaderWorldCache} {
		if v := src.Get(h); v != "" {
			dst.Set(h, v)
		}
	}
}

// replicaStudies is one replica's slice of the fleet-wide listing.
type replicaStudies struct {
	Replica string          `json:"replica"`
	Error   string          `json:"error,omitempty"`
	Studies json.RawMessage `json:"studies,omitempty"`
}

func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	reps := make([]*replica, 0, len(rt.replicas))
	for _, id := range rt.ring.ids {
		reps = append(reps, rt.replicas[id])
	}
	rt.mu.Unlock()
	out := make([]replicaStudies, 0, len(reps))
	for _, rep := range reps {
		entry := replicaStudies{Replica: rep.id}
		if !rep.isHealthy() {
			entry.Error = "unhealthy"
			out = append(out, entry)
			continue
		}
		resp, err := rt.forward(r.Context(), rep, http.MethodGet, "/v1/studies", nil)
		if err != nil {
			rt.noteFailure(rep)
			entry.Error = err.Error()
			out = append(out, entry)
			continue
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			entry.Error = fmt.Sprintf("status %d", resp.StatusCode)
		} else {
			entry.Studies = raw
		}
		out = append(out, entry)
	}
	writeJSON(w, http.StatusOK, out)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, rt.metrics.Render())
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	healthy := len(rt.HealthyIDs())
	rt.mu.Lock()
	total := len(rt.replicas)
	rt.mu.Unlock()
	status := http.StatusOK
	if healthy == 0 {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"status":   map[bool]string{true: "ok", false: "no healthy replica"}[healthy > 0],
		"healthy":  healthy,
		"replicas": total,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

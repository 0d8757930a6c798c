package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/wideleak"
)

// opTimeout bounds one op end to end; an op past it counts as failed.
const opTimeout = 60 * time.Second

// client speaks the public HTTP API of a replica or the router.
type client struct {
	http *http.Client
	// spans, when set, records one span per HTTP request the client
	// makes (the traced run); nil costs nothing.
	spans *spanLog
}

func newClient() *client {
	return &client{http: &http.Client{Transport: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
		MaxIdleConnsPerHost: 16,
	}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// opResult is what one op produced.
type opResult struct {
	latency time.Duration
	cells   int  // probe cells delivered in verified tables
	wrong   bool // a served table differed from its reference
	err     error

	// The op's IDs; its tier and execute time (status wall_ms; 0 and
	// executed=false for tier-1 hits, which run nothing) are filled in
	// after the traced run's timed window.
	opID      int64
	id        string
	executeMS float64
	executed  bool
	tier      string
}

// studyStatus is the slice of GET /v1/studies/{id} the benchmark reads.
type studyStatus struct {
	Cached     bool   `json:"cached"`
	WallMS     int64  `json:"wall_ms"`
	WorldCache string `json:"world_cache"`
	CellCache  string `json:"cell_cache"`
}

// tier classifies where a done study's bytes came from. cell_cache is
// read before world_cache, because world_cache reads "miss" on
// cell-recombined jobs that built no world.
func (s *studyStatus) tier() string {
	switch {
	case s.Cached:
		return "tier1"
	case s.CellCache == "hit":
		return "recombined"
	case s.WorldCache == "hit":
		return "world"
	default:
		return "cold"
	}
}

// do runs one op against base (the router) and checks its tables.
func (c *client) do(ctx context.Context, base string, w *workload, o op, opID int64) opResult {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	sh := w.shapes[o.shape]
	specs := w.specs(o)
	start := time.Now()
	var (
		rep reply
		err error
	)
	if w.kind == studyOp {
		rep, err = c.study(ctx, base, specs[0], opID)
	} else {
		rep, err = c.batch(ctx, base, specs, opID)
	}
	res := opResult{latency: time.Since(start), err: err, opID: opID, id: rep.id}
	if err != nil {
		return res
	}
	for i, table := range rep.tables {
		if !bytes.Equal(table, sh.refs[i]) {
			res.wrong = true
			res.err = fmt.Errorf("op %d spec %d: served table differs from the reference", o.seq, i)
			return res
		}
	}
	res.cells = sh.cells
	return res
}

// reply is what the API returned for one op: its ID and the text table
// of every spec.
type reply struct {
	id     string
	tables [][]byte
}

// study submits one spec, follows it to a terminal state over SSE and
// fetches its text table.
func (c *client) study(ctx context.Context, base string, spec wideleak.RunSpec, opID int64) (reply, error) {
	var sub struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := c.postJSON(ctx, base+"/v1/studies", spec, opID, &sub); err != nil {
		return reply{}, err
	}
	rep := reply{id: sub.ID}
	if sub.State != "done" {
		state, err := c.followSSE(ctx, base+"/v1/studies/"+sub.ID+"/events?stream=1", opID)
		if err != nil {
			return rep, err
		}
		if state != "done" {
			return rep, fmt.Errorf("study %s ended %s", sub.ID, state)
		}
	}
	table, err := c.get(ctx, base+"/v1/studies/"+sub.ID+"/table?format=txt", opID)
	rep.tables = [][]byte{table}
	return rep, err
}

// batch submits the specs as one batch, follows its row stream to a
// terminal state and fetches every spec's text table.
func (c *client) batch(ctx context.Context, base string, specs []wideleak.RunSpec, opID int64) (reply, error) {
	var sub struct {
		ID string `json:"id"`
	}
	req := struct {
		Specs []wideleak.RunSpec `json:"specs"`
	}{specs}
	if err := c.postJSON(ctx, base+"/v1/batches", req, opID, &sub); err != nil {
		return reply{}, err
	}
	rep := reply{id: sub.ID}
	state, err := c.followSSE(ctx, base+"/v1/batches/"+sub.ID+"/rows?stream=1", opID)
	if err != nil {
		return rep, err
	}
	if state != "done" {
		return rep, fmt.Errorf("batch %s ended %s", sub.ID, state)
	}
	rep.tables = make([][]byte, len(specs))
	for i := range specs {
		if rep.tables[i], err = c.get(ctx, base+"/v1/batches/"+sub.ID+"/tables/"+strconv.Itoa(i)+"?format=txt", opID); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// httpError is a non-2xx answer; a 429 is a shed.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.status, strings.TrimSpace(e.body))
}

// send performs one request and returns the response with a 2xx status;
// anything else is an *httpError. The caller closes the body.
func (c *client) send(ctx context.Context, method, url string, body io.Reader, opID int64) (*http.Response, func(), error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	end := c.spans.begin(opID, "client "+method+" "+routeOf(url), req)
	resp, err := c.http.Do(req)
	if err != nil {
		end()
		return nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		end()
		return nil, nil, &httpError{status: resp.StatusCode, body: string(raw)}
	}
	return resp, end, nil
}

func (c *client) get(ctx context.Context, url string, opID int64) ([]byte, error) {
	resp, end, err := c.send(ctx, http.MethodGet, url, nil, opID)
	if err != nil {
		return nil, err
	}
	defer end()
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func (c *client) getJSON(ctx context.Context, url string, opID int64, out any) error {
	raw, err := c.get(ctx, url, opID)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

func (c *client) postJSON(ctx context.Context, url string, in any, opID int64, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, end, err := c.send(ctx, http.MethodPost, url, bytes.NewReader(body), opID)
	if err != nil {
		return err
	}
	defer end()
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// followSSE reads a server-sent event stream until its `done` event and
// returns the terminal state it carries.
func (c *client) followSSE(ctx context.Context, url string, opID int64) (string, error) {
	resp, end, err := c.send(ctx, http.MethodGet, url, nil, opID)
	if err != nil {
		return "", err
	}
	defer end()
	defer resp.Body.Close()
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
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
				return "", fmt.Errorf("stream %s: bad done event: %w", url, err)
			}
			return fin.State, nil
		}
	}
	if err := scanner.Err(); err != nil {
		return "", fmt.Errorf("stream %s: %w", url, err)
	}
	return "", fmt.Errorf("stream %s ended without a done event", url)
}

// scrape reads one /metrics page into name → value, summing labelled
// series under their bare name.
func (c *client) scrape(ctx context.Context, base string) (map[string]float64, error) {
	raw, err := c.get(ctx, base+"/metrics", -1)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, nil
}

// routeOf names a URL by its API route, with IDs elided, for span names.
func routeOf(url string) string {
	path := url
	if i := strings.Index(path, "://"); i >= 0 {
		path = path[i+3:]
		if j := strings.IndexByte(path, '/'); j >= 0 {
			path = path[j:]
		}
	}
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	parts := strings.Split(path, "/")
	// /v1/{studies|batches}/{id}/...: drop the id and a trailing spec index.
	if len(parts) > 3 {
		parts[3] = "{id}"
	}
	if len(parts) > 5 {
		parts[5] = "{spec}"
	}
	return strings.Join(parts, "/")
}

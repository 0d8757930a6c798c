package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries the client request span's ID to the router, so the
// router's span can name its parent exactly.
const spanHeader = "X-Perfbench-Span"

// span is one timed call at a layer boundary. Spans of one op share Op;
// Parent is the causing span's ID (0 for a root, or a replica span whose
// parent is resolved later by containment).
type span struct {
	ID, Parent, Op int64
	Name           string
	Start, End     int64 // nanoseconds since the log's base
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// spanLog keeps spans in memory until the run writes them out. A nil
// log, or one switched off, records nothing.
type spanLog struct {
	base   time.Time
	on     atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) enabled() bool { return l != nil && l.on.Load() }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// begin opens a span and returns the function that closes it. When req
// is non-nil the span's ID travels with it in spanHeader.
func (l *spanLog) begin(op int64, name string, req *http.Request) func() {
	if !l.enabled() {
		return func() {}
	}
	s := span{ID: l.nextID.Add(1), Op: op, Name: name, Start: int64(time.Since(l.base))}
	if req != nil {
		req.Header.Set(spanHeader, strconv.FormatInt(s.ID, 10))
	}
	return func() {
		s.End = int64(time.Since(l.base))
		l.add(s)
	}
}

// timed runs fn and records a span around it.
func (l *spanLog) timed(op int64, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	if l.enabled() {
		s := span{ID: l.nextID.Add(1), Op: op, Name: name, Start: int64(start.Sub(l.base))}
		s.End = s.Start + int64(d)
		l.add(s)
	}
	return d
}

// wrap records a span around every request a layer's handler serves.
// The parent comes from spanHeader when the caller sent one. A nil log
// leaves the handler as it is.
func (l *spanLog) wrap(layer string, next http.Handler) http.Handler {
	if l == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.enabled() {
			next.ServeHTTP(w, r)
			return
		}
		s := span{ID: l.nextID.Add(1), Name: layer + " " + r.Method + " " + routeOf(r.URL.Path), Start: int64(time.Since(l.base))}
		if p, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64); err == nil {
			s.Parent = p
		}
		next.ServeHTTP(w, r)
		s.End = int64(time.Since(l.base))
		l.add(s)
	})
}

func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// link resolves parents: a router span inherits its client span's op,
// and each replica span is matched to the router span of the same route
// that contains it (earliest-starting unmatched one), since the router
// does not forward the span header.
func link(spans []span) []span {
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	var routers, replicas []*span
	for i := range spans {
		s := &spans[i]
		switch {
		case strings.HasPrefix(s.Name, "fleet "):
			if p := byID[s.Parent]; p != nil {
				s.Op = p.Op
			}
			routers = append(routers, s)
		case strings.HasPrefix(s.Name, "serve ") && s.Parent == 0:
			replicas = append(replicas, s)
		}
	}
	sort.Slice(routers, func(i, j int) bool { return routers[i].Start < routers[j].Start })
	sort.Slice(replicas, func(i, j int) bool { return replicas[i].Start < replicas[j].Start })
	claimed := make(map[int64]bool)
	for _, rep := range replicas {
		route := rep.Name[len("serve "):]
		for _, rt := range routers {
			if rt.Start > rep.Start {
				break
			}
			// A batch submit fans out to one part per replica; every
			// other request reaches exactly one replica.
			fanOut := route == "POST /v1/batches"
			if rt.End >= rep.End && rt.Name[len("fleet "):] == route && (fanOut || !claimed[rt.ID]) {
				rep.Parent, rep.Op = rt.ID, rt.Op
				claimed[rt.ID] = true
				break
			}
		}
	}
	return spans
}

// selfMS returns each span's duration minus the part its children
// cover, keyed by span ID.
func selfMS(spans []span) map[int64]float64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, reach int64 = 0, s.Start
		for _, k := range kids {
			st, en := max(k.Start, reach), min(k.End, s.End)
			if en > st {
				covered += en - st
				reach = en
			}
		}
		out[s.ID] = float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (opens in
// Perfetto or chrome://tracing), one track per op.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		TS   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		PID  int              `json:"pid"`
		TID  int64            `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Op, Args: map[string]int64{"id": s.ID, "parent": s.Parent},
		})
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

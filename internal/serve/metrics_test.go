package serve

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/wideleak/probe"
)

func staticGauge(v int) func() int { return func() int { return v } }

// TestMetrics_Render pins the exposition format: counters, labeled
// families with sorted labels, live-sampled gauges, and histograms with
// cumulative buckets.
func TestMetrics_Render(t *testing.T) {
	m := newMetrics(staticGauge(3), staticGauge(2))
	m.addSubmitted()
	m.addSubmitted()
	m.addShed()
	m.addCacheHit()
	m.addCacheMiss()
	m.addCoalesced()
	m.jobFinished(JobDone)
	m.jobFinished(JobDone)
	m.jobFinished(JobFailed)

	observe := m.RetryObserver()
	observe("cdn.example", 1, errors.New("transient"))
	observe("cdn.example", 2, errors.New("transient"))
	observe("api.example", 1, errors.New("transient"))

	m.ObserveEvent(probe.Event{Kind: probe.EventProbeFinished, Wall: 2 * time.Millisecond, Virtual: 40 * time.Millisecond})
	m.ObserveEvent(probe.Event{Kind: probe.EventProbeDegraded, Wall: 80 * time.Millisecond, Virtual: 90 * time.Second})

	out := m.Render()
	for _, want := range []string{
		"wideleakd_jobs_submitted_total 2",
		"wideleakd_jobs_shed_total 1",
		"wideleakd_jobs_coalesced_total 1",
		"wideleakd_cache_hits_total 1",
		"wideleakd_cache_misses_total 1",
		"wideleakd_probe_degraded_total 1",
		`wideleakd_jobs_total{state="done"} 2`,
		`wideleakd_jobs_total{state="failed"} 1`,
		`wideleakd_netsim_retries_total{host="api.example"} 1`,
		`wideleakd_netsim_retries_total{host="cdn.example"} 2`,
		"wideleakd_queue_depth 3",
		"wideleakd_jobs_inflight 2",
		"wideleakd_probe_wall_seconds_count 2",
		"wideleakd_probe_virtual_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	// Labels render sorted, so api.example precedes cdn.example.
	if strings.Index(out, `host="api.example"`) > strings.Index(out, `host="cdn.example"`) {
		t.Error("retry hosts not sorted")
	}
	// Retry events reaching the probe sink must NOT double-count: only
	// the RetryObserver path feeds the retry counters.
	m.ObserveEvent(probe.Event{Kind: probe.EventRetry, Host: "cdn.example"})
	if out := m.Render(); !strings.Contains(out, `wideleakd_netsim_retries_total{host="cdn.example"} 2`) {
		t.Error("EventRetry through the sink changed the retry counter")
	}
}

package fleet

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/promtext"
)

// Metrics is the router's fleet-level instrumentation, rendered in the
// Prometheus text exposition format at /metrics. Per-replica counters
// carry a replica label; the latency histograms cover every proxied
// request (and submits separately, since those are the routed unit).
type Metrics struct {
	mu sync.Mutex

	routed      map[string]int64 // replica → submits landed there
	spilled     map[string]int64 // replica → submits that spilled onto it (≠ ring owner)
	replicaShed map[string]int64 // replica → 429s it answered
	proxyErrors map[string]int64 // replica → transport failures talking to it
	batchParts  map[string]int64 // replica → batch partitions landed there
	shed        int64            // submits the fleet rejected: every candidate shed
	unroutable  int64            // requests with no healthy replica to try
	failovers   int64            // jobs resubmitted after their replica was lost
	batches     int64            // batch submissions fanned out across the ring

	requestSeconds *promtext.Histogram // every proxied request, router-observed wall time
	submitSeconds  *promtext.Histogram // POST /v1/studies only

	// live state sampled at render time
	replicaHealthy  func() map[string]bool
	replicaInflight func() map[string]int64
	ringShares      func() map[string]float64
}

func newFleetMetrics(healthy func() map[string]bool, inflight func() map[string]int64, shares func() map[string]float64) *Metrics {
	return &Metrics{
		routed:      make(map[string]int64),
		spilled:     make(map[string]int64),
		replicaShed: make(map[string]int64),
		proxyErrors: make(map[string]int64),
		batchParts:  make(map[string]int64),
		// Warm fleet hits are sub-millisecond; a failover rerun of a cold
		// ten-app study reaches tens of seconds.
		requestSeconds:  promtext.NewHistogram(.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30),
		submitSeconds:   promtext.NewHistogram(.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30),
		replicaHealthy:  healthy,
		replicaInflight: inflight,
		ringShares:      shares,
	}
}

func (m *Metrics) addRouted(replica string, spill bool) {
	m.mu.Lock()
	m.routed[replica]++
	if spill {
		m.spilled[replica]++
	}
	m.mu.Unlock()
}

func (m *Metrics) addReplicaShed(replica string) { m.inc(m.replicaShed, replica) }
func (m *Metrics) addProxyError(replica string)  { m.inc(m.proxyErrors, replica) }
func (m *Metrics) addBatchPart(replica string)   { m.inc(m.batchParts, replica) }

func (m *Metrics) addBatch() {
	m.mu.Lock()
	m.batches++
	m.mu.Unlock()
}

func (m *Metrics) inc(field map[string]int64, replica string) {
	m.mu.Lock()
	field[replica]++
	m.mu.Unlock()
}

func (m *Metrics) addShed() {
	m.mu.Lock()
	m.shed++
	m.mu.Unlock()
}

func (m *Metrics) addUnroutable() {
	m.mu.Lock()
	m.unroutable++
	m.mu.Unlock()
}

func (m *Metrics) addFailover() {
	m.mu.Lock()
	m.failovers++
	m.mu.Unlock()
}

// Failovers reports how many jobs were resubmitted after replica loss.
func (m *Metrics) Failovers() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failovers
}

// Routed reports per-replica landed submits (copy).
func (m *Metrics) Routed() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.routed))
	for k, v := range m.routed {
		out[k] = v
	}
	return out
}

// Spilled reports per-replica submits that landed off-owner (copy).
func (m *Metrics) Spilled() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.spilled))
	for k, v := range m.spilled {
		out[k] = v
	}
	return out
}

func (m *Metrics) observeRequest(seconds float64) {
	m.mu.Lock()
	m.requestSeconds.Observe(seconds)
	m.mu.Unlock()
}

func (m *Metrics) observeSubmit(seconds float64) {
	m.mu.Lock()
	m.submitSeconds.Observe(seconds)
	m.mu.Unlock()
}

// Render produces the Prometheus text exposition. Output is stable:
// families in fixed order, label values sorted.
func (m *Metrics) Render() string {
	healthy := m.replicaHealthy()
	inflight := m.replicaInflight()
	shares := m.ringShares()

	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder

	promtext.CounterVec(&b, "wideleakfleet_routed_total", "Study submissions landed on each replica.", "replica", m.routed)
	promtext.CounterVec(&b, "wideleakfleet_spilled_total", "Submissions that spilled onto this replica instead of the ring owner.", "replica", m.spilled)
	promtext.CounterVec(&b, "wideleakfleet_replica_shed_total", "429 responses observed from each replica.", "replica", m.replicaShed)
	promtext.CounterVec(&b, "wideleakfleet_proxy_errors_total", "Transport failures talking to each replica.", "replica", m.proxyErrors)
	promtext.CounterVec(&b, "wideleakfleet_batch_parts_total", "Batch partitions (one per distinct world owner) landed on each replica.", "replica", m.batchParts)

	promtext.Counter(&b, "wideleakfleet_shed_total", "Submissions the fleet rejected because every candidate replica shed.", m.shed)
	promtext.Counter(&b, "wideleakfleet_unroutable_total", "Requests with no healthy replica to route to.", m.unroutable)
	promtext.Counter(&b, "wideleakfleet_failovers_total", "Jobs resubmitted to a ring successor after their replica was lost.", m.failovers)
	promtext.Counter(&b, "wideleakfleet_batches_total", "Batch submissions fanned out across the ring by world key.", m.batches)

	promtext.Header(&b, "wideleakfleet_replica_healthy", "Replica health as seen by the router (1 healthy, 0 not).", "gauge")
	for _, replica := range promtext.SortedKeys(healthy) {
		v := 0
		if healthy[replica] {
			v = 1
		}
		fmt.Fprintf(&b, "wideleakfleet_replica_healthy{replica=%q} %d\n", replica, v)
	}
	promtext.Header(&b, "wideleakfleet_replica_inflight", "Proxied requests currently outstanding per replica.", "gauge")
	for _, replica := range promtext.SortedKeys(inflight) {
		fmt.Fprintf(&b, "wideleakfleet_replica_inflight{replica=%q} %d\n", replica, inflight[replica])
	}
	promtext.Header(&b, "wideleakfleet_ring_share", "Fraction of the hash-ring keyspace owned by each replica.", "gauge")
	for _, replica := range promtext.SortedKeys(shares) {
		fmt.Fprintf(&b, "wideleakfleet_ring_share{replica=%q} %.4f\n", replica, shares[replica])
	}

	m.requestSeconds.Render(&b, "wideleakfleet_request_seconds", "Router-observed wall time of every proxied request.")
	m.submitSeconds.Render(&b, "wideleakfleet_submit_seconds", "Router-observed wall time of study submissions (routing included).")
	return b.String()
}

// Package promtext writes the Prometheus text exposition format: counter
// and gauge families, fixed-bucket histograms, and the sorted label
// order that keeps a rendering stable from one scrape to the next.
package promtext

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// SortedKeys returns a map's keys in ascending order, the order label
// values render in.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Header writes a family's HELP and TYPE lines.
func Header(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter writes an unlabeled counter family.
func Counter(w io.Writer, name, help string, v int64) {
	Header(w, name, help, "counter")
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// Gauge writes an unlabeled gauge family.
func Gauge(w io.Writer, name, help string, v int64) {
	Header(w, name, help, "gauge")
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// CounterVec writes a counter family with one label, one sample per map
// entry in label order.
func CounterVec[V int | int64](w io.Writer, name, help, label string, values map[string]V) {
	Header(w, name, help, "counter")
	for _, k := range SortedKeys(values) {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, k, values[k])
	}
}

// Histogram is a fixed-bucket Prometheus histogram. It is not safe for
// concurrent use: callers hold their metrics lock around Observe and
// Render.
type Histogram struct {
	bounds []float64 // upper bounds, ascending
	counts []uint64  // per-bucket (non-cumulative)
	sum    float64
	count  uint64
}

// NewHistogram builds a histogram over ascending bucket upper bounds; an
// implicit +Inf bucket catches the rest.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.sum += v
	h.count++
	for i, bound := range h.bounds {
		if v <= bound {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++ // +Inf bucket
}

// Render writes the family: cumulative buckets, +Inf, _sum and _count.
func (h *Histogram) Render(w io.Writer, name, help string) {
	Header(w, name, help, "histogram")
	cumulative := uint64(0)
	for i, bound := range h.bounds {
		cumulative += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, trimFloat(bound), cumulative)
	}
	cumulative += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cumulative)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.count)
}

// trimFloat renders a bucket bound the way Prometheus clients do: the
// shortest decimal form, no exponent for these magnitudes.
func trimFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", v), "0"), ".")
}

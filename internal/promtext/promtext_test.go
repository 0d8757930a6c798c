package promtext

import (
	"strings"
	"testing"
)

// TestHistogram pins bucket assignment, the cumulative rendering, and
// the +Inf overflow bucket.
func TestHistogram(t *testing.T) {
	h := NewHistogram(0.01, 0.1, 1)
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 99} {
		h.Observe(v)
	}
	if h.count != 5 {
		t.Fatalf("count = %d", h.count)
	}

	var b strings.Builder
	h.Render(&b, "x_seconds", "test histogram")
	out := b.String()
	for _, want := range []string{
		`x_seconds_bucket{le="0.01"} 1`,
		`x_seconds_bucket{le="0.1"} 3`,
		`x_seconds_bucket{le="1"} 4`,
		`x_seconds_bucket{le="+Inf"} 5`,
		"x_seconds_count 5",
		"x_seconds_sum 99.605",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram missing %q in:\n%s", want, out)
		}
	}
}

// TestHistogram_RenderExact pins one rendered family byte for byte:
// HELP and TYPE, every cumulative bucket in bound order, +Inf, _sum and
// _count, and nothing else.
func TestHistogram_RenderExact(t *testing.T) {
	h := NewHistogram(.0005, .25, 2.5, 30)
	for _, v := range []float64{0.0001, 0.2, 0.25, 3, 31} {
		h.Observe(v)
	}
	var b strings.Builder
	h.Render(&b, "fam_seconds", "One family.")
	want := `# HELP fam_seconds One family.
# TYPE fam_seconds histogram
fam_seconds_bucket{le="0.0005"} 1
fam_seconds_bucket{le="0.25"} 3
fam_seconds_bucket{le="2.5"} 3
fam_seconds_bucket{le="30"} 4
fam_seconds_bucket{le="+Inf"} 5
fam_seconds_sum 34.4501
fam_seconds_count 5
`
	if got := b.String(); got != want {
		t.Errorf("rendered histogram:\n%s\nwant:\n%s", got, want)
	}
}

// TestTrimFloat: bucket bounds render in short decimal form.
func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{0.0005: "0.0005", 0.5: "0.5", 1: "1", 2.5: "2.5", 120: "120"}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

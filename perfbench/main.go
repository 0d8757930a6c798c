// Command perfbench is the repository's end-to-end benchmark. It boots a
// fleet — the consistent-hash router in front of two wideleakd replicas,
// in a child process — drives one named workload through the public
// HTTP API with two closed-loop clients, checks every served table
// against a reference built through the library, and prints its metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fresh-studies --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (tracing off). With
// --trace 1 it runs the same workload against an in-process fleet whose
// layers it wraps in spans, replays the workload through the library and
// times the device path layer by layer, and reports the per-layer
// metrics and the ledger of layer shares instead. The last line of
// standard output is always one JSON object:
//
//	{"correct": true, "attempted": 220, "failed": 0, "metrics": {...}}
//
// README.md lists the workloads, every metric and its definition.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// The fixed world every workload runs against. Its Device RSA keys are
// prewarmed on both replicas during set-up, so no workload ever mints one.
const worldSeed = "default"

// clients is the closed-loop client count: the callers are researchers
// and CI jobs that each wait for their table before asking again.
const clients = 2

// setupRounds is how many times a run sets the fleet up from scratch;
// setup_s reports the median.
const setupRounds = 3

// warmup is how long the workload runs untimed after set-up, so the
// caches reach their steady state before the timed window opens.
const warmup = time.Second

// goldenPath is the committed default Table I, the reference for the
// default spec, relative to the repository root.
const goldenPath = "internal/wideleak/testdata/tableI_default.txt"

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // sample count behind a timing; 0 for counts and ratios
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		if err := childMain(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench fleet: %v\n", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed the op sequence is generated from")
		seconds = flag.Int("seconds", 10, "length of the timed window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, window time.Duration, traced bool) error {
	if window <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("read the default-table golden (run from the repository root): %w", err)
	}
	w, err := newWorkload(name, seed, golden)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var res *result
	if traced {
		res, err = runTraced(ctx, w, window)
	} else {
		res, err = runEndToEnd(ctx, w, window)
	}
	if err != nil {
		return err
	}
	return printResult(os.Stdout, w.name, res)
}

// printResult writes one human-readable line per metric, then the JSON
// result as the last line.
func printResult(out io.Writer, workload string, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "workload %s: attempted %d, failed %d, correct %v\n", workload, res.Attempted, res.Failed, res.Correct)
	for _, name := range names {
		m := res.Metrics[name]
		if m.n > 0 {
			fmt.Fprintf(out, "  %-40s %14.4f %-6s (n=%d)\n", name, m.Value, m.Unit, m.n)
		} else {
			fmt.Fprintf(out, "  %-40s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

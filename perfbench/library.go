package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"repro/internal/provision"
	"repro/internal/wideleak"
	"repro/internal/wideleak/probe"
)

// libStats is what replaying the workload's first ops through the
// library's matrix executor measured.
type libStats struct {
	ops   int
	wrong int // library tables that differed from the references

	buildMS []float64            // BatchOptions.BuildStudy hook durations
	batchMS []float64            // ExecuteBatch wall per op
	probeMS map[string][]float64 // probe-finished event wall times by probe

	needed, planned, worldsBuilt, executed, observations, legacy int
}

// playbacks counts device playbacks: an observation run plays once at
// L1 and once at L3; each legacy playback is one more.
func (l *libStats) playbacks() int { return 2*l.observations + l.legacy }

// replayLibrary runs the workload's first ops (same seed, same order)
// straight through wideleak.ExecuteBatch with the benchmark's key pool,
// timing the world-build hook and collecting probe events from the
// studies it builds itself. Hot-repeat replays against a cell cache
// primed the way the replicas are.
func replayLibrary(ctx context.Context, w *workload, pool *provision.KeyPool, spans *spanLog) (*libStats, error) {
	st := &libStats{ops: w.libOps, probeMS: make(map[string][]float64)}
	cache := wideleak.NewCellCache(4096)
	build := poolBuilder(pool)
	if len(w.prime) > 0 {
		if _, err := wideleak.ExecuteBatch(ctx, w.prime, wideleak.BatchOptions{Concurrency: 2, Cache: cache, BuildStudy: build}); err != nil {
			return nil, fmt.Errorf("library replay: prime: %w", err)
		}
	}
	spans.on.Store(true)
	defer spans.on.Store(false)
	var mu sync.Mutex
	gen := w.newGen()
	for i := 0; i < st.ops; i++ {
		o := gen.next()
		opID := int64(1<<32 + i)
		var (
			res *wideleak.BatchResult
			err error
		)
		d := spans.timed(opID, "wideleak.ExecuteBatch", func() {
			res, err = wideleak.ExecuteBatch(ctx, w.specs(o), wideleak.BatchOptions{
				Concurrency: 2,
				Cache:       cache,
				BuildStudy: func(spec wideleak.RunSpec) (*wideleak.Study, error) {
					var (
						study *wideleak.Study
						err   error
					)
					bd := spans.timed(opID, "wideleak.BuildStudy", func() { study, err = build(spec) })
					if err != nil {
						return nil, err
					}
					study.SetEventSink(func(ev probe.Event) {
						if ev.Kind == probe.EventProbeFinished {
							mu.Lock()
							st.probeMS[ev.Probe] = append(st.probeMS[ev.Probe], ms(ev.Wall))
							mu.Unlock()
						}
					})
					mu.Lock()
					st.buildMS = append(st.buildMS, ms(bd))
					mu.Unlock()
					return study, nil
				},
			})
		})
		if err != nil {
			return nil, fmt.Errorf("library replay: op %d: %w", o.seq, err)
		}
		st.batchMS = append(st.batchMS, ms(d))
		for j, table := range res.Tables {
			out, err := table.Encode("txt")
			if err != nil || !bytes.Equal(out, w.shapes[o.shape].refs[j]) {
				st.wrong++
			}
		}
		st.needed += res.Stats.CellsNeeded
		st.planned += res.Stats.CellsPlanned
		st.worldsBuilt += res.Stats.WorldsBuilt
		st.executed += res.Stats.CellsExecuted
		st.observations += res.Stats.Observations
		st.legacy += res.Stats.LegacyPlaybacks
	}
	return st, nil
}

func (l *libStats) report(put func(name, unit string, v float64, n int)) {
	put("wideleak.world_build_ms_p50", "ms", median(l.buildMS), len(l.buildMS))
	for _, id := range defaultProbes {
		put("wideleak."+id+"_ms_p50", "ms", median(l.probeMS[id]), len(l.probeMS[id]))
	}
	put("wideleak.dedup_ratio", "ratio", ratio(float64(l.planned), float64(l.needed)), 0)
	put("wideleak.worlds_built_per_op", "count", ratio(float64(l.worldsBuilt), float64(l.ops)), 0)
	put("wideleak.batch_ms_p50", "ms", median(l.batchMS), len(l.batchMS))
	put("ott.playbacks_per_cell", "count", ratio(float64(l.playbacks()), float64(l.executed)), 0)
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"

	"repro/internal/provision"
	"repro/internal/wideleak"
)

// faultRate is the transient fault rate fresh-studies and overlap-batch
// ops carry. The retry budget masks every transient fault, so the served
// tables equal the fault-free references byte for byte.
const faultRate = 0.2

// opKind says which API an op goes through.
type opKind int

const (
	studyOp opKind = iota // POST /v1/studies, one spec
	batchOp               // POST /v1/batches, many specs
)

// shape is one fixed request shape a workload draws from: the
// fault-free specs of one op and, after set-up, their reference tables.
type shape struct {
	specs []wideleak.RunSpec
	refs  [][]byte // txt table per spec, filled by buildRefs
	cells int      // probe cells one verified op delivers
}

// op is one generated request: a shape plus the fault schedule this
// op's specs carry (nil on hot-repeat).
type op struct {
	seq    int
	shape  int
	faults *wideleak.RunFaults
}

// workload is one named traffic mix: its fixed shapes, the specs primed
// into every replica during set-up, and its seeded op generator.
type workload struct {
	name   string
	kind   opKind
	seed   int64
	golden []byte

	shapes []*shape
	prime  []wideleak.RunSpec

	// equalWork is the op count at which rss_mib_peak is read, so that
	// memory is compared at equal work rather than equal time.
	equalWork int
	// libOps is how many of its first ops the traced run replays
	// through the library.
	libOps int

	// drawer returns a fresh draw function over rng; draw(n) picks op
	// n's shape and fault schedule and is only called under opGen's lock.
	drawer func(rng *rand.Rand) func(n int) op
}

// opGen hands out a workload's op sequence. The sequence is a pure
// function of the seed; clients pull from it under a lock, so which
// client runs which op varies, but the ops do not.
type opGen struct {
	mu   sync.Mutex
	draw func(n int) op
	n    int
}

// newGen starts the workload's op sequence from the beginning; every
// generator owns its own seeded source, so two generators of one
// workload hand out the same ops.
func (w *workload) newGen() *opGen {
	return &opGen{draw: w.drawer(rand.New(rand.NewSource(w.seed)))}
}

func (g *opGen) next() op {
	g.mu.Lock()
	defer g.mu.Unlock()
	o := g.draw(g.n)
	o.seq = g.n
	g.n++
	return o
}

// specs returns the op's specs with its fault schedule applied.
func (w *workload) specs(o op) []wideleak.RunSpec {
	base := w.shapes[o.shape].specs
	out := make([]wideleak.RunSpec, len(base))
	for i, spec := range base {
		spec.Faults = o.faults
		out[i] = spec
	}
	return out
}

// appNames lists the registered apps in Table I order.
var appNames = []string{
	"Netflix", "Disney+", "Amazon Prime Video", "Hulu", "HBO Max",
	"Starz", "myCANAL", "Showtime", "OCS", "Salto",
}

func apps(idx ...int) []string {
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = appNames[j]
	}
	return out
}

// defaultProbes is the probe set of the committed default table.
var defaultProbes = []string{"q1", "q2", "q3", "q4"}

// pixelNexus5 and l3Nexus5 are device sets inside the default
// pixel,l3,nexus5 trio, so their Device RSA keys are among the
// prewarmed ones and no workload mints a key.
var (
	pixelNexus5 = []string{"pixel", "nexus5"}
	l3Nexus5    = []string{"l3", "nexus5"}
)

var workloadOrder = []string{"fresh-studies", "hot-repeat", "overlap-batch"}

func workloadNames() []string { return append([]string(nil), workloadOrder...) }

// newWorkload builds the named workload's shapes and generator.
func newWorkload(name string, seed int64, golden []byte) (*workload, error) {
	w := &workload{name: name, seed: seed, golden: golden}
	switch name {
	case "fresh-studies":
		w.kind = studyOp
		w.equalWork, w.libOps = 100, 12
		for _, s := range []struct {
			apps    []string
			dialect string
		}{
			{apps(0, 1), ""},
			{apps(2, 3, 4, 5), "hls"},
			{apps(4, 5, 6, 7, 8, 9), "sstr"},
			{nil, ""},
			{apps(6, 3, 9), "hls"},
			{apps(0, 1, 2, 3, 4, 5, 6, 7), "sstr"},
		} {
			w.shapes = append(w.shapes, &shape{specs: []wideleak.RunSpec{{
				Seed: worldSeed, Probes: defaultProbes, Profiles: s.apps, Dialect: s.dialect,
			}}})
		}
		offset := int(seed % int64(len(w.shapes)))
		if offset < 0 {
			offset = -offset
		}
		w.drawer = func(*rand.Rand) func(int) op {
			return func(n int) op {
				return op{
					shape:  (offset + n) % len(w.shapes),
					faults: &wideleak.RunFaults{Rate: faultRate, Seed: fmt.Sprintf("fresh-%d-%d", seed, n)},
				}
			}
		}

	case "hot-repeat":
		w.kind = studyOp
		w.equalWork, w.libOps = 20000, 300
		probeSets := [][]string{
			defaultProbes, {"q1"}, {"q2"}, {"q3"}, {"q4"}, {"q2", "q3"}, {"q5"},
		}
		appLists := [][]string{nil, apps(0, 1), apps(0, 3, 8), apps(2, 4, 6, 8, 9), apps(9), apps(1, 2, 3, 4, 5, 6, 7, 8)}
		for _, devices := range [][]string{nil, pixelNexus5} {
			for _, dialect := range []string{"", "hls", "sstr"} {
				// Priming runs every probe on every app of the world, so
				// every cell the key space can ask for is resident on both
				// replicas before the timed window.
				w.prime = append(w.prime, wideleak.RunSpec{
					Seed: worldSeed, Probes: []string{"q1", "q2", "q3", "q4", "q5"}, Devices: devices, Dialect: dialect,
				})
				for _, probes := range probeSets {
					for _, profiles := range appLists {
						w.shapes = append(w.shapes, &shape{specs: []wideleak.RunSpec{{
							Seed: worldSeed, Probes: probes, Profiles: profiles, Devices: devices, Dialect: dialect,
						}}})
					}
				}
			}
		}
		// Popularity ranks are a fixed permutation of the key space, so
		// every seed draws from the same mix; the seed picks the draws.
		perm := rand.New(rand.NewSource(0x5eed)).Perm(len(w.shapes))
		w.drawer = func(rng *rand.Rand) func(int) op {
			zipf := rand.NewZipf(rng, 1.1, 2, uint64(len(w.shapes)-1))
			return func(int) op { return op{shape: perm[zipf.Uint64()]} }
		}

	case "overlap-batch":
		w.kind = batchOp
		w.equalWork, w.libOps = 60, 6
		probeSets := [][]string{defaultProbes, {"q2", "q3"}, {"q1"}, {"q4"}}
		for _, profiles := range [][]string{apps(0, 1, 2), apps(3, 4, 5), apps(6, 7, 8), apps(9, 0, 3)} {
			sh := &shape{}
			for _, devices := range [][]string{nil, l3Nexus5} {
				for _, dialect := range []string{"", "hls"} {
					for _, probes := range probeSets {
						sh.specs = append(sh.specs, wideleak.RunSpec{
							Seed: worldSeed, Probes: probes, Profiles: profiles, Devices: devices, Dialect: dialect,
						})
					}
				}
			}
			w.shapes = append(w.shapes, sh)
		}
		offset := int(seed % int64(len(w.shapes)))
		if offset < 0 {
			offset = -offset
		}
		w.drawer = func(*rand.Rand) func(int) op {
			return func(n int) op {
				return op{
					shape:  (offset + n) % len(w.shapes),
					faults: &wideleak.RunFaults{Rate: faultRate, Seed: fmt.Sprintf("batch-%d-%d", seed, n)},
				}
			}
		}

	default:
		return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadOrder)
	}
	for _, sh := range w.shapes {
		for i, spec := range sh.specs {
			c, err := spec.Canonicalize()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			sh.specs[i] = c
			sh.cells += len(c.Profiles) * len(c.Probes)
		}
	}
	return w, nil
}

// isDefaultSpec reports whether a canonical spec is the committed
// default study (seed default, Q1-Q4, every app, DASH, the trio).
func isDefaultSpec(c wideleak.RunSpec) bool {
	d, err := wideleak.RunSpec{Seed: worldSeed}.Key()
	if err != nil {
		return false
	}
	k, err := c.Key()
	return err == nil && k == d
}

// poolBuilder is the BatchOptions.BuildStudy hook the benchmark's own
// library runs use: a fresh world for the spec with the benchmark's key
// pool attached, so nothing is minted after set-up.
func poolBuilder(pool *provision.KeyPool) func(wideleak.RunSpec) (*wideleak.Study, error) {
	return func(spec wideleak.RunSpec) (*wideleak.Study, error) {
		study, err := spec.Build()
		if err != nil {
			return nil, err
		}
		if err := study.World.AttachKeyPool(pool); err != nil {
			return nil, err
		}
		return study, nil
	}
}

// buildRefs computes every shape's reference tables through the
// library: the fault-free run of the same specs (the chaos suite pins
// that transient faults never change table bytes). The default spec's
// reference is the committed golden, and the library must agree with it.
func (w *workload) buildRefs(ctx context.Context, pool *provision.KeyPool) error {
	var specs []wideleak.RunSpec
	for _, sh := range w.shapes {
		specs = append(specs, sh.specs...)
	}
	res, err := wideleak.ExecuteBatch(ctx, specs, wideleak.BatchOptions{
		Concurrency: 2,
		BuildStudy:  poolBuilder(pool),
	})
	if err != nil {
		return fmt.Errorf("reference tables: %w", err)
	}
	i := 0
	for _, sh := range w.shapes {
		sh.refs = make([][]byte, len(sh.specs))
		for j, spec := range sh.specs {
			out, err := res.Tables[i].Encode("txt")
			if err != nil {
				return fmt.Errorf("reference tables: %w", err)
			}
			i++
			if isDefaultSpec(spec) {
				if string(out) != string(w.golden) {
					return fmt.Errorf("reference tables: the library's default table differs from %s", goldenPath)
				}
				out = w.golden
			}
			sh.refs[j] = out
		}
	}
	return nil
}

// mintPool mints the fixed world's Device RSA keys for the benchmark's
// own library runs, one worker per CPU, and returns each key's mint time
// in milliseconds.
func mintPool(ctx context.Context) (*provision.KeyPool, []float64, error) {
	pool := wideleak.NewKeyPool(worldSeed)
	ids := wideleak.DeviceStableIDs(nil)
	workers := runtime.GOMAXPROCS(0)
	var (
		mu    sync.Mutex
		times []float64
		wg    sync.WaitGroup
		errs  = make([]error, workers)
	)
	for worker := 0; worker < workers; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := worker; i < len(ids); i += workers {
				start := nowMS()
				if _, err := pool.Key(ids[i]); err != nil {
					errs[worker] = err
					return
				}
				d := nowMS() - start
				mu.Lock()
				times = append(times, d)
				mu.Unlock()
			}
		}(worker)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("mint key pool: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return pool, times, nil
}

// outDir is the ignored directory the benchmark builds and writes into,
// relative to the repository root (run.sh builds there too).
func outDir() string {
	if dir := os.Getenv("CARGO_TARGET_DIR"); dir != "" {
		return dir
	}
	return ".bench_build"
}

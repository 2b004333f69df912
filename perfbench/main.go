// Command perfbench is mpipart's host-performance benchmark. It drives the
// simulator only through its public functions — the bench job and point
// builders, runner, runner/store, serve.Server/Client, mpi.NewWorld and
// bench.MeasureKernelScale — and times those calls from outside.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench --workload figures-all|sensitivity|sweepd-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 it runs the workload's measured loop until S seconds have
// passed and prints the end-to-end metrics. With --trace 1 it runs a fixed
// amount of the workload twice, untraced and then traced (spans in memory,
// a CPU profile, allocation and dispatch counters), requires the exact
// counts of the two runs to agree, runs the layer probes, writes the spans
// to .bench_build/traces/ and prints the per-layer metrics, including the
// tracing overhead (traced minus untraced).
//
// Virtual-time results are never metrics: they are output checks. Every
// point with a BENCH_GOLDEN.json entry must equal it, every repeat of a
// point must equal its first run, and seeded samples of perturbed-model
// points are replayed on fresh runners off the clock. Failures count into
// "failed" and make "correct" false. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"syscall"
	"time"

	"mpipart/internal/bench"
	"mpipart/internal/runner/store"
	"mpipart/internal/sim"
)

// A run sets its workload up at least minSetupReps times and until
// minSetupTime has passed (at most maxSetupReps times); setup_s is the
// median.
const (
	minSetupReps = 5
	maxSetupReps = 1000
	minSetupTime = 1500 * time.Millisecond
)

// metricDef names one reported metric; BENCHMARK.json lists the same.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics of an untraced run. Latencies are split by how
// a point was answered: cold points were simulated, warm points were read
// back from a result store without simulating.
var endToEnd = []metricDef{
	{"points_per_s", "1/s", "higher"},
	{"cpu_ms_per_point", "ms", "lower"},
	{"cold_ms_p50", "ms", "lower"},
	{"cold_ms_p99", "ms", "lower"},
	{"warm_ms_p50", "ms", "lower"},
	{"warm_ms_p99", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// cpuLayers are the layers CPU-profile samples are charged to.
var cpuLayers = []string{
	"sim", "gpu", "dl", "jacobi", "nccl", "ucx", "fabric", "core", "coll", "mpi",
	"bench", "runner", "serve", "store", "gc", "other",
}

// perLayer are the metrics of a traced run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.dispatches", "count", "lower"},
		{"sim.elided", "count", "higher"},
		{"sim.events_per_cpu_s", "1/s", "higher"},
		{"sim.bytes_per_actor", "B", "lower"},
		{"alloc_mb_per_point", "MiB", "lower"},
		{"mpi.world_build_us", "us", "lower"},
		{"bench.gatepoints_build_us", "us", "lower"},
		{"runner.busy_frac", "ratio", "higher"},
		{"runner.tail_s", "s", "lower"},
		{"runner.computed", "count", "lower"},
		{"runner.hits", "count", "higher"},
		{"store.load_us_p50", "us", "lower"},
		{"store.save_us_p50", "us", "lower"},
		{"store.hits", "count", "higher"},
		{"store.misses", "count", "lower"},
		{"store.saves", "count", "lower"},
		{"store.save_errors", "count", "lower"},
		{"store.corrupt", "count", "lower"},
		{"serve.queue_ms_p99", "ms", "lower"},
		{"serve.compute_ms_p50", "ms", "lower"},
		{"serve.coalesced", "count", "higher"},
		{"serve.http_us_p50", "us", "lower"},
		{"trace.points_per_s_overhead", "1/s", "higher"},
		{"trace.cpu_ms_per_point_overhead", "ms", "lower"},
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_frac", "ratio", "lower"})
	}
	return defs
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report fills res.Metrics from vals in the order of defs.
func report(res *result, defs []metricDef, vals map[string]float64) error {
	res.Metrics = map[string]metricValue{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("metric %s not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	return nil
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: figures-all, sensitivity or sweepd-mix")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured time of an untraced run")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	child := fs.Bool("child", false, "run one figures-all pass and report it as JSON (used by figures-all itself)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *child {
		pr, err := childPass(*trace == 1)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(pr)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: child pass: %v\n", err)
			os.Exit(1)
		}
		return
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (figures-all|sensitivity|sweepd-mix), --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	res, err := runWorkload(wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

func runWorkload(wl *workload, seed uint64, dur time.Duration, traced bool) (*result, error) {
	inst, setupS, err := setUp(wl, seed)
	if err != nil {
		return nil, err
	}
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	// Start measuring from a collected, scavenged heap and with no file
	// system write-back pending from set-up or from an earlier run.
	debug.FreeOSMemory()
	syscall.Sync()
	if !traced {
		prepAttempted, prepFailed := inst.prepare()
		ctl := control{deadline: time.Now().Add(dur)}
		ph, err := inst.run(ctl)
		if err != nil {
			return nil, err
		}
		ph.attempted += prepAttempted
		ph.failed += prepFailed
		rss := ph.rssMiB
		if rss == 0 {
			if rss, err = peakRSSMiB(); err != nil {
				return nil, err
			}
		}
		if err := inst.finish(ctl, ph); err != nil {
			return nil, err
		}
		vals := endToEndValues(ph, setupS, rss)
		res := newResult(ph.attempted, ph.failed)
		printSummary(os.Stdout, wl.name, ph, vals, endToEnd)
		return res, report(res, endToEnd, vals)
	}

	// Traced run: the same fixed work untraced (A), then traced (B).
	phA, cntA, err := runPhase(inst, control{rounds: wl.tracedRounds})
	if err != nil {
		return nil, err
	}
	if wl.freshPerPhase {
		inst.close()
		if inst, err = wl.setup(seed); err != nil {
			return nil, err
		}
	}
	tr := newTracer()
	t0 := time.Now()
	phB, cntB, err := runPhase(inst, control{rounds: wl.tracedRounds, tr: tr, profile: true})
	if err != nil {
		return nil, err
	}
	tr.add("phase", "", wl.name, t0, time.Now())
	frac := phB.cpuFrac()

	vals := map[string]float64{}
	if cntA != cntB {
		fmt.Fprintf(os.Stderr, "perfbench: exact counts differ between the untraced and traced run:\n  %+v\n  %+v\n", cntA, cntB)
		phB.failed++
	}
	vals["sim.dispatches"] = float64(phB.dispatches)
	vals["sim.elided"] = float64(phB.elided)
	vals["sim.events_per_cpu_s"] = 0
	if simCPU := frac["sim"] * phB.cpuS; simCPU > 0 {
		vals["sim.events_per_cpu_s"] = float64(phB.dispatches+phB.elided) / simCPU
	}
	vals["alloc_mb_per_point"] = float64(phB.allocBytes) / (1 << 20) / float64(max(phB.points, 1))
	vals["runner.busy_frac"] = phB.busy.Seconds() / (phB.wallS * float64(phB.slots))
	vals["runner.tail_s"] = phB.tail.Seconds()
	vals["runner.computed"] = float64(phB.computed)
	vals["runner.hits"] = float64(phB.hits)
	vals["store.load_us_p50"] = median(phB.loadUS)
	vals["store.save_us_p50"] = median(phB.saveUS)
	vals["store.hits"] = float64(phB.storeStats.Hits)
	vals["store.misses"] = float64(phB.storeStats.Misses)
	vals["store.saves"] = float64(phB.storeStats.Saves)
	vals["store.save_errors"] = float64(phB.storeStats.SaveErrors)
	vals["store.corrupt"] = float64(phB.storeStats.Corrupt)
	vals["serve.queue_ms_p99"] = quantile(phB.queueMS, 0.99)
	vals["serve.compute_ms_p50"] = median(phB.computeMS)
	vals["serve.coalesced"] = float64(phB.coalesced)
	vals["serve.http_us_p50"] = median(phB.httpUS)
	vals["trace.points_per_s_overhead"] = median(phB.roundPPS) - median(phA.roundPPS)
	vals["trace.cpu_ms_per_point_overhead"] = median(phB.roundCPUMS) - median(phA.roundCPUMS)
	for _, l := range cpuLayers {
		vals[l+".cpu_frac"] = 0
	}
	for _, l := range sortedKeys(frac) {
		name := l + ".cpu_frac"
		if _, ok := vals[name]; !ok {
			name = "other.cpu_frac"
		}
		vals[name] += frac[l]
	}

	// Layer probes, after the phase so they do not disturb it.
	vals["mpi.world_build_us"] = probeWorldBuildUS(tr, 400)
	vals["bench.gatepoints_build_us"] = probeGatePointsUS(tr, 50)
	vals["sim.bytes_per_actor"] = bench.MeasureKernelScale(100000, 2).BytesPerActor

	path := fmt.Sprintf(".bench_build/traces/%s-seed%d.json", wl.name, seed)
	if err := tr.dump(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	res := newResult(phA.attempted+phB.attempted, phA.failed+phB.failed)
	printSummary(os.Stdout, wl.name, phB, vals, perLayer)
	return res, report(res, perLayer, vals)
}

// setUp sets the workload up repeatedly, keeping the last instance, and
// returns it with the median set-up time in seconds.
func setUp(wl *workload, seed uint64) (instance, float64, error) {
	var inst instance
	var ts []float64
	start := time.Now()
	for len(ts) < minSetupReps || len(ts) < maxSetupReps && time.Since(start) < minSetupTime {
		if inst != nil {
			inst.close()
		}
		runtime.GC() // each set-up starts from a collected heap
		t0 := time.Now()
		var err error
		if inst, err = wl.setup(seed); err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return inst, median(ts), nil
}

// counts are the deterministic counters of one phase; two phases of the
// same fixed work must produce identical counts.
type counts struct {
	dispatches, elided int64
	computed, hits     int
	store              store.Stats
}

// runPhase runs one fixed-work phase and its off-the-clock checks. It
// fills the phase's dispatch, elision and allocation deltas and, when
// ctl.profile is set, its per-layer CPU shares from this process (unless
// the phase ran in child processes that reported them), and returns the
// phase's exact counts.
func runPhase(inst instance, ctl control) (*phase, counts, error) {
	prepAttempted, prepFailed := inst.prepare()
	var m0, m1 runtime.MemStats
	var prof bytes.Buffer
	runtime.ReadMemStats(&m0)
	d0, e0 := sim.TotalDispatched(), sim.TotalElided()
	if ctl.profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, counts{}, fmt.Errorf("cpu profile: %w", err)
		}
	}
	ph, err := inst.run(ctl)
	if ctl.profile {
		pprof.StopCPUProfile()
	}
	d1, e1 := sim.TotalDispatched(), sim.TotalElided()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, counts{}, err
	}
	if !ph.counted {
		ph.dispatches, ph.elided = d1-d0, e1-e0
		ph.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		if ctl.profile {
			frac, err := attribute(prof.Bytes())
			if err != nil {
				return nil, counts{}, err
			}
			ph.mergeFrac(frac, 1)
		}
	}
	ph.attempted += prepAttempted
	ph.failed += prepFailed
	if err := inst.finish(ctl, ph); err != nil {
		return nil, counts{}, err
	}
	c := counts{dispatches: ph.dispatches, elided: ph.elided, computed: ph.computed, hits: ph.hits, store: ph.storeStats}
	return ph, c, nil
}

func newResult(attempted, failed int) *result {
	return &result{Correct: failed == 0, Attempted: max(attempted, 1), Failed: failed}
}

// endToEndValues computes the end-to-end metrics: medians over rounds of
// the rates, percentiles over every latency sample.
func endToEndValues(ph *phase, setupS, rssMiB float64) map[string]float64 {
	return map[string]float64{
		"points_per_s":     median(ph.roundPPS),
		"cpu_ms_per_point": median(ph.roundCPUMS),
		"cold_ms_p50":      median(ph.coldMS),
		"cold_ms_p99":      quantile(ph.coldMS, 0.99),
		"warm_ms_p50":      median(ph.warmMS),
		"warm_ms_p99":      quantile(ph.warmMS, 0.99),
		"setup_s":          setupS,
		"peak_rss_mb":      rssMiB,
	}
}

// printSummary writes a human-readable table: every metric by name and
// unit, the sample counts behind the percentiles, and the error rate.
func printSummary(w io.Writer, name string, ph *phase, vals map[string]float64, defs []metricDef) {
	fmt.Fprintf(w, "workload %s: %d points in %.2f s wall, %.2f s cpu; %d cold and %d warm latency samples\n",
		name, ph.points, ph.wallS, ph.cpuS, len(ph.coldMS), len(ph.warmMS))
	fmt.Fprintf(w, "  %-34s %14.6g %s\n", "error_rate", float64(ph.failed)/float64(max(ph.attempted, 1)),
		fmt.Sprintf("(%d of %d failed)", ph.failed, ph.attempted))
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"time"

	"mpipart/internal/bench"
	"mpipart/internal/runner"
	"mpipart/internal/sim"
)

// figures-all runs every distinct point of figures -all. Each pass runs in
// a fresh child process (this binary with --child), because that is what a
// researcher waits for: the first pass in a process pays the page faults of
// a ~2.4 GB heap and an empty GPU slab pool, and later passes in the same
// process would not, while their resident set would keep growing.

// childTimeout bounds one figures-all child pass.
const childTimeout = 170 * time.Second

// figuresJobs mirrors cmd/figures -all at its default caps.
func figuresJobs() []bench.Job {
	return []bench.Job{
		bench.Fig2Job(131072), bench.Fig3Job(),
		bench.Fig4Job(2048), bench.Fig5Job(2048),
		bench.Fig6Job(2048), bench.Fig7Job(2048),
		bench.Fig8Job(32), bench.Fig9Job(32),
		bench.Fig10Job(2048), bench.Fig11Job(2048),
		bench.TableIJob(),
	}
}

// figuresBatch builds the 196 distinct figure points, checked against the
// golden where it has an entry (the 48 gate points).
func figuresBatch() (*batch, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	var pts []runner.Point
	seen := map[string]bool{}
	for _, j := range figuresJobs() {
		for _, p := range j.Points {
			if !seen[p.Key] {
				seen[p.Key] = true
				pts = append(pts, p)
			}
		}
	}
	return newBatch([][]runner.Point{pts}, figuresWorkers, []map[string]runner.Metrics{golden}), nil
}

type figuresInst struct {
	*batch
}

func setupFigures(uint64) (instance, error) {
	b, err := figuresBatch()
	if err != nil {
		return nil, err
	}
	return figuresInst{b}, nil
}

// childSpan is a span of the child process, in Unix-epoch microseconds.
type childSpan struct {
	Name, ID, Label        string
	StartUnixUS, EndUnixUS float64
}

// passResult is what one child process reports for its pass.
type passResult struct {
	WallS, CPUS, RSSMiB float64
	ColdMS              []float64
	BusyS, TailS        float64
	Attempted, Failed   int
	Computed, Hits      int
	Dispatches, Elided  int64
	AllocBytes          uint64
	Frac                map[string]float64 `json:",omitempty"`
	Spans               []childSpan        `json:",omitempty"`
	Results             []runner.Metrics
}

// childPass is the body of a child process: one cold pass, traced or not.
func childPass(traced bool) (*passResult, error) {
	b, err := figuresBatch()
	if err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	if traced {
		b.timer.tr = newTracer()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d0, e0 := sim.TotalDispatched(), sim.TotalElided()
	ph := &phase{}
	clk := startClock()
	results := b.round(ph, b.golden)
	wall, cpu := clk.stop()
	d1, e1 := sim.TotalDispatched(), sim.TotalElided()
	runtime.ReadMemStats(&m1)
	pr := &passResult{
		WallS: wall, CPUS: cpu, ColdMS: ph.coldMS,
		BusyS: ph.busy.Seconds(), TailS: ph.tail.Seconds(),
		Attempted: ph.attempted, Failed: ph.failed, Computed: ph.computed, Hits: ph.hits,
		Dispatches: d1 - d0, Elided: e1 - e0, AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		Results: results[0],
	}
	if traced {
		pprof.StopCPUProfile()
		if pr.Frac, err = attribute(prof.Bytes()); err != nil {
			return nil, err
		}
		tr := b.timer.tr
		epoch := float64(tr.epoch.UnixNano()) / 1e3
		for _, s := range tr.spans {
			pr.Spans = append(pr.Spans, childSpan{s.Name, s.ID, s.Label, epoch + s.StartUS, epoch + s.EndUS})
		}
	}
	if pr.RSSMiB, err = peakRSSMiB(); err != nil {
		return nil, err
	}
	return pr, nil
}

// runChild runs one pass in a fresh child process and decodes its report.
func runChild(traced bool) (*passResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self, "--workload", "figures-all", "--child", "--trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child pass: %w", err)
	}
	var pr passResult
	if err := json.Unmarshal(out, &pr); err != nil {
		return nil, fmt.Errorf("child pass: %w", err)
	}
	return &pr, nil
}

// run measures child passes. The first pass's results become the
// reference; every pass's gate points were checked against the golden by
// the child, and later passes must equal the first.
func (f figuresInst) run(ctl control) (ph *phase, err error) {
	ph = &phase{slots: figuresWorkers, counted: true}
	var w *warmStore
	defer func() { w.close(ph) }()
	var rss []float64
	for pass := 0; ctl.more(pass); pass++ {
		pr, err := runChild(ctl.tr != nil)
		if err != nil {
			return nil, err
		}
		n := f.points()
		if len(pr.Results) != n {
			return nil, fmt.Errorf("child pass: %d results for %d points", len(pr.Results), n)
		}
		if f.ref == nil {
			f.ref = [][]runner.Metrics{pr.Results}
		} else {
			ph.failed += countMismatches(pr.Results, f.ref[0])
		}
		ph.attempted += pr.Attempted
		ph.failed += pr.Failed
		ph.points += n
		ph.wallS += pr.WallS
		ph.cpuS += pr.CPUS
		ph.coldMS = append(ph.coldMS, pr.ColdMS...)
		ph.busy += time.Duration(pr.BusyS * float64(time.Second))
		ph.tail += time.Duration(pr.TailS * float64(time.Second))
		ph.computed += pr.Computed
		ph.hits += pr.Hits
		ph.dispatches += pr.Dispatches
		ph.elided += pr.Elided
		ph.allocBytes += pr.AllocBytes
		ph.mergeFrac(pr.Frac, pr.CPUS)
		rss = append(rss, pr.RSSMiB)
		for _, s := range pr.Spans {
			ctl.tr.add(s.Name, s.ID, s.Label, unixUS(s.StartUnixUS), unixUS(s.EndUnixUS))
		}
		if w == nil {
			if w, err = f.openWarm(ctl.tr); err != nil {
				return nil, err
			}
		}
		f.warm(w, ph)
		ph.addRound(n, pr.WallS, pr.CPUS)
	}
	ph.rssMiB = median(rss)
	return ph, nil
}

func unixUS(us float64) time.Time { return time.Unix(0, int64(us*1e3)) }

// finish has nothing left to check: every pass was compared with the
// golden and the first pass, and every warm read with the first pass.
func (f figuresInst) finish(control, *phase) error { return nil }

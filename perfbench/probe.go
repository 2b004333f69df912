package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mpipart/internal/bench"
	"mpipart/internal/cluster"
	"mpipart/internal/mpi"
	"mpipart/internal/runner"
)

// Layer probes. Everything here wraps or calls the program's public
// functions from outside: spans and timings are taken around the calls
// into each layer, never inside them.

// span is one traced interval. Spans of one point or request share ID,
// its content-addressed key, so store operations line up with the point
// or request that caused them.
type span struct {
	Name    string  `json:"name"`
	ID      string  `json:"id,omitempty"`
	Label   string  `json:"label,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	// Parent is the index of the enclosing span in the dump, -1 for roots.
	// It is resolved at dump time: the innermost enclosing span with the
	// same ID, else the innermost enclosing span without one.
	Parent int `json:"parent"`
	// Placed marks a span built from a reported duration rather than
	// observed instants; it is never a parent.
	Placed bool `json:"placed,omitempty"`
}

// tracer keeps spans in memory until dump. A nil *tracer records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.epoch).Nanoseconds()) / 1e3 }

// add records a span.
func (t *tracer) add(name, id, label string, start, end time.Time) {
	t.record(name, id, label, start, end, false)
}

// addPlaced records a span placed from a reported duration.
func (t *tracer) addPlaced(name, id, label string, start, end time.Time) {
	t.record(name, id, label, start, end, true)
}

func (t *tracer) record(name, id, label string, start, end time.Time, placed bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Label: label, StartUS: t.us(start), EndUS: t.us(end), Placed: placed})
}

// dump resolves every span's parent and writes all spans as JSON.
func (t *tracer) dump(path string) error {
	byID := map[string][]int{}
	for i, s := range t.spans {
		byID[s.ID] = append(byID[s.ID], i)
	}
	// innermost returns the shortest span among cands enclosing span i.
	innermost := func(i int, cands []int) int {
		s, best := t.spans[i], -1
		for _, j := range cands {
			o := t.spans[j]
			if j == i || o.Placed || o.StartUS > s.StartUS || o.EndUS < s.EndUS {
				continue
			}
			if best < 0 || o.EndUS-o.StartUS < t.spans[best].EndUS-t.spans[best].StartUS {
				best = j
			}
		}
		return best
	}
	for i := range t.spans {
		p := -1
		if id := t.spans[i].ID; id != "" {
			p = innermost(i, byID[id])
		}
		if p < 0 {
			p = innermost(i, byID[""])
		}
		t.spans[i].Parent = p
	}
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return fmt.Errorf("trace dump: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dump: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("trace dump: %w", err)
	}
	return nil
}

// timedStore implements runner.Store around another store, recording the
// latency of every Load and Save.
type timedStore struct {
	st runner.Store
	tr *tracer

	mu     sync.Mutex
	loadUS []float64
	saveUS []float64
}

func (s *timedStore) Load(key string) (runner.Metrics, bool) {
	t0 := time.Now()
	m, ok := s.st.Load(key)
	t1 := time.Now()
	s.tr.add("store.load", key, "", t0, t1)
	s.mu.Lock()
	s.loadUS = append(s.loadUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
	s.mu.Unlock()
	return m, ok
}

func (s *timedStore) Save(key string, m runner.Metrics) {
	t0 := time.Now()
	s.st.Save(key, m)
	t1 := time.Now()
	s.tr.add("store.save", key, "", t0, t1)
	s.mu.Lock()
	s.saveUS = append(s.saveUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
	s.mu.Unlock()
}

// take returns and clears the recorded latencies.
func (s *timedStore) take() (loadUS, saveUS []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	loadUS, saveUS = s.loadUS, s.saveUS
	s.loadUS, s.saveUS = nil, nil
	return loadUS, saveUS
}

// interval is one Point.Run execution.
type interval struct{ start, end time.Time }

// pointTimer records the busy interval of every wrapped Point.Run.
type pointTimer struct {
	tr *tracer

	mu   sync.Mutex
	runs []interval
}

// wrap returns copies of ps whose Run records its interval in pt.
func (pt *pointTimer) wrap(ps []runner.Point) []runner.Point {
	out := make([]runner.Point, len(ps))
	for i, p := range ps {
		out[i] = p
		out[i].Run = func() runner.Metrics {
			t0 := time.Now()
			m := p.Run()
			t1 := time.Now()
			pt.tr.add("point", p.Key, p.ID, t0, t1)
			pt.mu.Lock()
			pt.runs = append(pt.runs, interval{t0, t1})
			pt.mu.Unlock()
			return m
		}
	}
	return out
}

// take returns and clears the recorded intervals.
func (pt *pointTimer) take() []interval {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	runs := pt.runs
	pt.runs = nil
	return runs
}

// busyAndTail summarizes the intervals of one runner.Run call that ended at
// end: the summed busy time, and the tail — the wall time after the first
// worker found no point left to start.
func busyAndTail(runs []interval, end time.Time) (busy, tail time.Duration) {
	if len(runs) == 0 {
		return 0, 0
	}
	lastStart := runs[0].start
	for _, r := range runs {
		busy += r.end.Sub(r.start)
		if r.start.After(lastStart) {
			lastStart = r.start
		}
	}
	firstIdle := end
	for _, r := range runs {
		if r.end.After(lastStart) && r.end.Before(firstIdle) {
			firstIdle = r.end
		}
	}
	return busy, end.Sub(firstIdle)
}

// latenciesMS returns each interval's duration in milliseconds.
func latenciesMS(runs []interval) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = ms(r.end.Sub(r.start))
	}
	return out
}

// probeWorldBuildUS times mpi.NewWorld + Free, alternating the one- and
// two-node GH200 topologies, and returns the median in microseconds.
func probeWorldBuildUS(tr *tracer, n int) float64 {
	topos := []cluster.Topology{cluster.OneNodeGH200(), cluster.TwoNodeGH200()}
	model := cluster.DefaultModel()
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		mpi.NewWorld(topos[i%2], model, 1).Free()
		t1 := time.Now()
		tr.add("probe.world_build", "", fmt.Sprintf("nodes=%d", topos[i%2].Nodes), t0, t1)
		us[i] = float64(t1.Sub(t0).Nanoseconds()) / 1e3
	}
	return median(us)
}

// probeGatePointsUS times bench.GatePoints under a fresh copy of the
// default model and returns the median in microseconds.
func probeGatePointsUS(tr *tracer, n int) float64 {
	us := make([]float64, n)
	for i := range us {
		m := cluster.DefaultModel()
		t0 := time.Now()
		bench.GatePoints(&m)
		t1 := time.Now()
		tr.add("probe.gatepoints_build", "", "", t0, t1)
		us[i] = float64(t1.Sub(t0).Nanoseconds()) / 1e3
	}
	return median(us)
}

// sortedIDs returns the IDs of ps in sorted order.
func sortedIDs(ps []runner.Point) []string {
	ids := make([]string, len(ps))
	for i, p := range ps {
		ids[i] = p.ID
	}
	sort.Strings(ids)
	return ids
}

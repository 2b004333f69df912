package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"mpipart/internal/bench"
	"mpipart/internal/cluster"
	"mpipart/internal/runner"
	"mpipart/internal/runner/store"
	"mpipart/internal/serve"
)

// Workload sizes.
const (
	figuresWorkers = 2
	sensitivityN   = 40   // cost models per sensitivity round (model 0 = default)
	sweepdClients  = 2    // closed-loop clients
	sweepdWorkers  = 2    // server compute slots
	warmLoads      = 6000 // batch workloads: store reads after each measured round
	replaySample   = 30   // perturbed-model points replayed off the clock

	sweepdFillerEntries = 10000 // store entries written before each measured phase
	sweepdWarmupReqs    = 1000  // per client, before each measured phase
)

// control bounds one measured phase: rounds until the deadline (untraced)
// or exactly rounds rounds (traced, so counts repeat exactly).
type control struct {
	deadline time.Time
	rounds   int
	tr       *tracer
	profile  bool // CPU-profile the measured loop
}

func (c control) more(done int) bool {
	if c.rounds > 0 {
		return done < c.rounds
	}
	return done == 0 || time.Now().Before(c.deadline)
}

// phase is what one measured phase of any workload produced.
type phase struct {
	attempted, failed int

	// Measured rounds: points completed (requests served), per-round rates,
	// and the rounds' summed wall and CPU seconds.
	points     int
	roundPPS   []float64
	roundCPUMS []float64 // CPU ms per point
	wallS      float64
	cpuS       float64
	coldMS     []float64
	warmMS     []float64
	busy       time.Duration // summed Point.Run (or server compute) time
	slots      int           // workers the busy time is spread over
	tail       time.Duration

	// Runner and store dispositions over the whole phase.
	computed, hits int
	storeStats     store.Stats
	loadUS, saveUS []float64

	// Serving layer (sweepd-mix only).
	queueMS, computeMS, httpUS []float64
	coalesced                  int

	// Process-level accounting of the measured loop. runPhase fills it
	// from this process unless counted is set: then the work ran in child
	// processes, which reported these themselves.
	counted            bool
	dispatches, elided int64
	allocBytes         uint64
	rssMiB             float64
	fracSum            map[string]float64 // CPU share by layer, weighted
	fracW              float64
}

// addRound records one measured round of n points.
func (p *phase) addRound(n int, wallS, cpuS float64) {
	p.roundPPS = append(p.roundPPS, float64(n)/wallS)
	p.roundCPUMS = append(p.roundCPUMS, 1e3*cpuS/float64(n))
}

// mergeFrac adds one profile's per-layer CPU shares with weight w.
func (p *phase) mergeFrac(f map[string]float64, w float64) {
	if len(f) == 0 {
		return
	}
	if p.fracSum == nil {
		p.fracSum = map[string]float64{}
	}
	for _, k := range sortedKeys(f) {
		p.fracSum[k] += f[k] * w
	}
	p.fracW += w
}

// cpuFrac returns the merged per-layer CPU shares.
func (p *phase) cpuFrac() map[string]float64 {
	out := map[string]float64{}
	for k, v := range p.fracSum {
		out[k] = v / p.fracW
	}
	return out
}

func (p *phase) addStore(st store.Stats) {
	p.storeStats.Hits += st.Hits
	p.storeStats.Misses += st.Misses
	p.storeStats.Corrupt += st.Corrupt
	p.storeStats.Saves += st.Saves
	p.storeStats.SaveErrors += st.SaveErrors
}

// instance is one set-up workload, ready to run measured phases.
type instance interface {
	// prepare does untimed work before a measured phase and returns how
	// many operations it attempted and how many of those failed.
	prepare() (attempted, failed int)
	// run executes the measured loop of one phase.
	run(ctl control) (*phase, error)
	// finish does the phase's off-the-clock work: warm replay and output
	// checks that re-run points.
	finish(ctl control, ph *phase) error
	close()
}

type workload struct {
	name  string
	setup func(seed uint64) (instance, error)
	// tracedRounds is the fixed work of each traced phase: passes over the
	// catalog, rounds of models, or requests per client.
	tracedRounds int
	// freshPerPhase sets the workload up again before the traced phase,
	// so both phases start from the same store state.
	freshPerPhase bool
}

var workloads = []workload{
	{name: "figures-all", setup: setupFigures, tracedRounds: 1},
	{name: "sensitivity", setup: setupSensitivity, tracedRounds: 6},
	{name: "sweepd-mix", setup: setupSweepd, tracedRounds: 4000, freshPerPhase: true},
}

// loadGolden reads the committed virtual-time golden from the checkout.
func loadGolden() (map[string]runner.Metrics, error) {
	b, err := os.ReadFile("BENCH_GOLDEN.json")
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	g, err := bench.DecodeGolden(b)
	if err != nil {
		return nil, err
	}
	return g.Points, nil
}

// runPoints executes points on r, turning a point panic into an error.
func runPoints(r *runner.Runner, pts []runner.Point) (ms []runner.Metrics, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%v", rec)
		}
	}()
	return r.Run(pts), nil
}

// countMismatches compares got against want point by point; a missing
// want counts as a match (nothing to compare against).
func countMismatches(got, want []runner.Metrics) int {
	bad := 0
	for i := range got {
		if want[i] != nil && !got[i].Equal(want[i]) {
			bad++
		}
	}
	return bad
}

// batch is the shared body of the two batch workloads: groups of points,
// each group run through its own fresh runner, one round being every group
// once.
type batch struct {
	groups  [][]runner.Point // unwrapped
	workers int
	timer   pointTimer
	wrapped [][]runner.Point
	golden  [][]runner.Metrics // per point, nil where the golden has no entry
	ref     [][]runner.Metrics
}

// newBatch wraps the groups for timing; golden[gi], when non-nil, holds the
// committed results group gi's points must equal, by point ID.
func newBatch(groups [][]runner.Point, workers int, golden []map[string]runner.Metrics) *batch {
	b := &batch{groups: groups, workers: workers}
	for gi, g := range groups {
		b.wrapped = append(b.wrapped, b.timer.wrap(g))
		want := make([]runner.Metrics, len(g))
		if gi < len(golden) {
			for i, p := range g {
				want[i] = golden[gi][p.ID]
			}
		}
		b.golden = append(b.golden, want)
	}
	return b
}

// run measures rounds of every group. The first round's results become
// the reference: they must equal the golden, and later rounds must equal
// them.
func (b *batch) run(ctl control) (ph *phase, err error) {
	b.timer.tr = ctl.tr
	ph = &phase{slots: b.workers}
	var w *warmStore
	defer func() { w.close(ph) }()
	for i := 0; ctl.more(i); i++ {
		want := b.ref
		if want == nil {
			want = b.golden
		}
		rc := startClock()
		res := b.round(ph, want)
		wall, cpu := rc.stop()
		if b.ref == nil {
			b.ref = res
		}
		n := b.points()
		ph.points += n
		ph.wallS += wall
		ph.cpuS += cpu
		if w == nil {
			if w, err = b.openWarm(ctl.tr); err != nil {
				return nil, err
			}
		}
		b.warm(w, ph)
		ph.addRound(n, wall, cpu)
	}
	return ph, nil
}

func (b *batch) points() int {
	n := 0
	for _, g := range b.groups {
		n += len(g)
	}
	return n
}

// round runs every group once on fresh runners, counts results that
// differ from want, and returns the results.
func (b *batch) round(ph *phase, want [][]runner.Metrics) [][]runner.Metrics {
	var results [][]runner.Metrics
	for gi, g := range b.wrapped {
		r := runner.New(b.workers)
		ms, err := runPoints(r, g)
		end := time.Now()
		runs := b.timer.take()
		busy, tail := busyAndTail(runs, end)
		ph.busy += busy
		ph.tail += tail
		ph.coldMS = append(ph.coldMS, latenciesMS(runs)...)
		ph.attempted += len(g)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: group %d: %v\n", gi, err)
			ph.failed += len(g)
			results = append(results, make([]runner.Metrics, len(g)))
			continue
		}
		cs := r.CacheStats()
		ph.computed += cs.Computed
		ph.hits += cs.MemHits + cs.StoreHits
		ph.failed += countMismatches(ms, want[gi])
		results = append(results, ms)
	}
	return results
}

// warmStore holds a batch's reference results in a fresh disk store, so
// they can be read back through store-backed runners — what figures -store
// does on a warm second run. It lives for one measured phase.
type warmStore struct {
	dir string
	ds  *store.DiskStore
	ts  *timedStore
}

// openWarm writes the reference results into a new temporary store
// through the timing wrapper.
func (b *batch) openWarm(tr *tracer) (*warmStore, error) {
	dir, err := os.MkdirTemp("", "perfbench-warm-")
	if err != nil {
		return nil, fmt.Errorf("warm store: %w", err)
	}
	ds, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("warm store: %w", err)
	}
	w := &warmStore{dir: dir, ds: ds, ts: &timedStore{st: ds, tr: tr}}
	for gi, g := range b.groups {
		for i, p := range g {
			if b.ref[gi][i] != nil {
				w.ts.Save(p.Key, b.ref[gi][i])
			}
		}
	}
	return w, nil
}

// warm reads the reference results back through fresh store-backed
// runners until at least warmLoads points were served. Every
// replayed point must come from the store and equal its reference.
func (b *batch) warm(w *warmStore, ph *phase) {
	for loads := 0; loads < warmLoads; {
		for gi, g := range b.groups {
			r := runner.NewWithStore(b.workers, w.ts)
			ms, err := runPoints(r, g)
			ph.attempted += len(g)
			loads += len(g)
			cs := r.CacheStats()
			ph.hits += cs.StoreHits + cs.MemHits
			if err != nil || cs.Computed > 0 {
				ph.failed += len(g)
				continue
			}
			ph.failed += countMismatches(ms, b.ref[gi])
		}
	}
	loadUS, saveUS := w.ts.take()
	ph.loadUS = append(ph.loadUS, loadUS...)
	ph.saveUS = append(ph.saveUS, saveUS...)
	for _, us := range loadUS {
		ph.warmMS = append(ph.warmMS, us/1e3)
	}
}

// close adds the store's counters to ph, unless ph is nil, and removes the
// store.
func (w *warmStore) close(ph *phase) {
	if w == nil {
		return
	}
	defer os.RemoveAll(w.dir)
	if ph != nil {
		ph.addStore(w.ds.Stats())
	}
}

func (b *batch) prepare() (int, int) { return 0, 0 }

func (b *batch) close() {}

// ---- sensitivity ----

type sensitivityInst struct {
	*batch
	models []cluster.Model
	seed   uint64
}

func setupSensitivity(seed uint64) (instance, error) { return newSensitivity(seed, sensitivityN) }

// newSensitivity sets the workload up with n cost models.
func newSensitivity(seed uint64, n int) (instance, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	models := sensitivityModels(seed, n)
	groups := make([][]runner.Point, len(models))
	for i := range models {
		groups[i] = smallGatePoints(&models[i])
	}
	// Only model 0 (the calibrated default) is checked against the golden;
	// perturbed models are checked by replay.
	for _, p := range groups[0] {
		if golden[p.ID] == nil {
			return nil, fmt.Errorf("golden has no entry for %s", p.ID)
		}
	}
	b := newBatch(groups, 1, []map[string]runner.Metrics{golden})
	return sensitivityInst{batch: b, models: models, seed: seed}, nil
}

// finish replays a seeded sample of perturbed-model points on fresh
// runners, from freshly built catalogs, and requires exact equality.
func (s sensitivityInst) finish(ctl control, ph *phase) error {
	r := newRNG(s.seed, 1<<32)
	for k := 0; k < replaySample; k++ {
		mi := 1 + r.IntN(len(s.models)-1)
		pi := r.IntN(len(s.groups[mi]))
		m := s.models[mi]
		fresh := smallGatePoints(&m)
		if s.ref[mi][pi] == nil || !samePoint(fresh[pi], s.groups[mi][pi]) {
			ph.failed++
			continue
		}
		got, err := runPoints(runner.New(1), fresh[pi:pi+1])
		if err != nil || !got[0].Equal(s.ref[mi][pi]) {
			ph.failed++
		}
	}
	return nil
}

func samePoint(a, b runner.Point) bool { return a.ID == b.ID && a.Key == b.Key }

// ---- sweepd-mix ----

type sweepdInst struct {
	seed    uint64
	dir     string
	ds      *store.DiskStore
	ts      *timedStore
	http    *httptest.Server
	gateIDs []string
	golden  map[string]runner.Metrics
	base    store.Stats // store counters when the measured phase starts
	served  []served
}

// served is one completed sweepd-mix request.
type served struct {
	req        request
	res        serve.PointResult
	err        error
	start, end time.Time
}

func setupSweepd(seed uint64) (instance, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "perfbench-sweepd-")
	if err != nil {
		return nil, fmt.Errorf("sweepd setup: %w", err)
	}
	ds, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("sweepd setup: %w", err)
	}
	gate := bench.GatePoints(nil)
	if _, err := runPoints(runner.NewWithStore(sweepdWorkers, ds), gate); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("sweepd prefill: %w", err)
	}
	serve.CatalogIDs() // builds the server's default catalog once per process
	ts := &timedStore{st: ds}
	srv := serve.NewServer(serve.Config{Store: ts, Workers: sweepdWorkers})
	return &sweepdInst{
		seed: seed, dir: dir, ds: ds, ts: ts,
		http:    httptest.NewServer(srv.Handler()),
		gateIDs: sortedIDs(gate),
		golden:  golden,
		base:    ds.Stats(),
	}, nil
}

func (s *sweepdInst) close() {
	s.http.Close()
	os.RemoveAll(s.dir)
}

// client is one closed-loop sweepd-mix client: its request stream and its
// HTTP client.
type client struct {
	gen *requestGen
	cl  *serve.Client
}

// clients returns the closed-loop clients on request stream `stream`.
func (s *sweepdInst) clients(stream uint64) []client {
	cs := make([]client, sweepdClients)
	for c := range cs {
		cs[c] = client{newRequestGen(s.seed, stream, c, sweepdClients, s.gateIDs), serve.NewClient(s.http.URL)}
	}
	return cs
}

// drive runs the clients until ctl says stop and returns every request
// served, ordered by completion, and the time between the first client
// going idle and the last finishing.
func (s *sweepdInst) drive(cs []client, ctl control) ([]served, time.Duration) {
	perClient := make([][]served, len(cs))
	var wg sync.WaitGroup
	for c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				if ctl.rounds > 0 && n >= ctl.rounds || ctl.rounds == 0 && n > 0 && !time.Now().Before(ctl.deadline) {
					return
				}
				q := cs[c].gen.next()
				t0 := time.Now()
				resp, err := cs[c].cl.Sweep(serve.Request{Points: []string{q.point}, Model: q.model})
				t1 := time.Now()
				sv := served{req: q, err: err, start: t0, end: t1}
				if err == nil && len(resp.Results) != 1 {
					sv.err = fmt.Errorf("%d results for one point", len(resp.Results))
				}
				if sv.err == nil {
					sv.res = resp.Results[0]
				}
				perClient[c] = append(perClient[c], sv)
			}
		}()
	}
	wg.Wait()
	var all []served
	var first, last time.Time
	for _, sc := range perClient {
		if len(sc) == 0 {
			continue
		}
		end := sc[len(sc)-1].end
		if first.IsZero() || end.Before(first) {
			first = end
		}
		if end.After(last) {
			last = end
		}
		all = append(all, sc...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].end.Before(all[j].end) })
	return all, last.Sub(first)
}

// prepare warms the daemon up before a measured phase. It first writes
// filler entries, under keys no request asks for, straight into the
// store: on this kind of file system the first several thousand entries
// written into a fresh store directory after a large deletion (such as an
// earlier run's store) take up to ten times the steady-state time. Then it
// serves a warm-up request stream, distinct from the measured one, and
// counts its failures.
func (s *sweepdInst) prepare() (attempted, failed int) {
	filler := runner.Metrics{"filler": 1}
	for i := 0; i < sweepdFillerEntries; i++ {
		s.ds.Save(runner.KeyOf("perfbench/filler", i), filler)
	}
	all, _ := s.drive(s.clients(1), control{rounds: sweepdWarmupReqs})
	for _, sv := range all {
		attempted++
		if sv.err != nil || sv.res.Error != "" {
			failed++
		}
	}
	s.base = s.ds.Stats()
	s.ts.take() // drop the warm-up's store latencies
	return attempted, failed
}

// sweepdRound is the length of one untraced sweepd-mix round; a traced
// phase is a single round of a fixed number of requests per client.
const sweepdRound = time.Second

func (s *sweepdInst) run(ctl control) (*phase, error) {
	s.ts.tr = ctl.tr
	ph := &phase{slots: sweepdWorkers}
	cs := s.clients(0)
	s.served = nil
	for i := 0; ctl.more(i); i++ {
		rctl := ctl
		if ctl.rounds == 0 {
			rctl.deadline = time.Now().Add(sweepdRound)
			if rctl.deadline.After(ctl.deadline) {
				rctl.deadline = ctl.deadline
			}
		}
		rc := startClock()
		all, tail := s.drive(cs, rctl)
		wall, cpu := rc.stop()
		ph.wallS += wall
		ph.cpuS += cpu
		ph.tail += tail
		s.served = append(s.served, all...)
		for _, sv := range all {
			s.record(ctl.tr, ph, sv)
		}
		ph.addRound(len(all), wall, cpu)
		if ctl.rounds > 0 {
			break // a traced phase is one round
		}
	}
	return ph, nil
}

// record checks one served request and adds it to the phase.
func (s *sweepdInst) record(tr *tracer, ph *phase, sv served) {
	ph.attempted++
	lat := ms(sv.end.Sub(sv.start))
	if sv.req.cold() {
		ph.coldMS = append(ph.coldMS, lat)
	} else {
		ph.warmMS = append(ph.warmMS, lat)
	}
	if sv.err != nil || sv.res.Error != "" || sv.res.Point != sv.req.point {
		ph.failed++
		return
	}
	if !sv.req.cold() && !sv.res.Metrics.Equal(s.golden[sv.req.point]) {
		ph.failed++
	}
	ph.points++
	r := sv.res
	ph.httpUS = append(ph.httpUS, 1e3*lat-r.TotalUS)
	ph.busy += time.Duration(r.ComputeUS * 1e3)
	switch r.Source {
	case serve.SourceComputed:
		ph.computed++
		ph.queueMS = append(ph.queueMS, r.QueueUS/1e3)
		ph.computeMS = append(ph.computeMS, r.ComputeUS/1e3)
	case serve.SourceCoalesced:
		ph.coalesced++
		ph.hits++
	default:
		ph.hits++
	}
	tr.add("http.request", r.Key, r.Point, sv.start, sv.end)
	if tr != nil && r.Source == serve.SourceComputed {
		// The server reports durations, not instants: place its queue and
		// compute spans centred in the client-observed interval.
		s0 := sv.start.Add((sv.end.Sub(sv.start) - time.Duration(r.TotalUS*1e3)) / 2)
		q1 := s0.Add(time.Duration(r.QueueUS * 1e3))
		tr.addPlaced("serve.queue", r.Key, r.Point, s0, q1)
		tr.addPlaced("serve.compute", r.Key, r.Point, q1, q1.Add(time.Duration(r.ComputeUS*1e3)))
	}
}

// finish replays a seeded sample of cold responses on a fresh runner from
// a freshly built catalog and requires exact equality.
func (s *sweepdInst) finish(ctl control, ph *phase) error {
	var cold []served
	for _, sv := range s.served {
		if sv.req.cold() && sv.err == nil && sv.res.Error == "" {
			cold = append(cold, sv)
		}
	}
	r := newRNG(s.seed, 1<<32)
	for k := 0; k < replaySample && len(cold) > 0; k++ {
		sv := cold[r.IntN(len(cold))]
		var pt *runner.Point
		for _, p := range bench.GatePoints(sv.req.model) {
			if p.ID == sv.req.point {
				pt = &p
				break
			}
		}
		if pt == nil || pt.Key != sv.res.Key {
			ph.failed++
			continue
		}
		got, err := runPoints(runner.New(1), []runner.Point{*pt})
		if err != nil || !got[0].Equal(sv.res.Metrics) {
			ph.failed++
		}
	}
	ph.loadUS, ph.saveUS = s.ts.take()
	st := s.ds.Stats()
	ph.addStore(store.Stats{
		Hits: st.Hits - s.base.Hits, Misses: st.Misses - s.base.Misses, Corrupt: st.Corrupt - s.base.Corrupt,
		Saves: st.Saves - s.base.Saves, SaveErrors: st.SaveErrors - s.base.SaveErrors,
	})
	return nil
}

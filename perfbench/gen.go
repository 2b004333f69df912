package main

import (
	"math"
	"math/rand/v2"
	"strings"

	"mpipart/internal/bench"
	"mpipart/internal/cluster"
	"mpipart/internal/runner"
	"mpipart/internal/sim"
)

// Seeded input generators. Every workload input — cost models, request
// kinds, point choices — comes from a PCG stream keyed by (seed, stream),
// so the same seed always yields the same inputs and the program under test
// only ever sees the generated values.

// Perturbation ranges, inclusive: the ranges cmd/sweep sweeps. Every bound
// is strictly positive, so no generated model has a zero or negative cost.
var (
	syncCostNS   = [2]int64{2000, 20000} // StreamSyncCost, 2-20 µs
	launchCostNS = [2]int64{500, 5000}   // KernelLaunchCost, 0.5-5 µs
	flagGapNS    = [2]int64{100, 1000}   // HostFlagWriteGap, 100-1000 ns
	nvlinkBPS    = [2]float64{75e9, 450e9}
	ibBPS        = [2]float64{12e9, 96e9}
)

// smallFamilies are the model-parameterized gate families whose points
// cost about a millisecond each: no Jacobi, deep-learning or OSU point.
var smallFamilies = map[string]bool{
	"fig2": true, "fig3": true, "fig4": true, "fig5": true,
	"halo1": true, "halo2": true, "table1": true,
}

func isSmall(id string) bool {
	fam, _, _ := strings.Cut(id, "/")
	return smallFamilies[fam]
}

// smallGatePoints returns the 30 small gate points under model m.
func smallGatePoints(m *cluster.Model) []runner.Point {
	var out []runner.Point
	for _, p := range bench.GatePoints(m) {
		if isSmall(p.ID) {
			out = append(out, p)
		}
	}
	return out
}

func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// perturbedModel draws one cost model: the calibrated defaults with the
// five swept parameters replaced by uniform draws from their ranges.
func perturbedModel(r *rand.Rand) cluster.Model {
	intIn := func(b [2]int64) sim.Duration { return sim.Duration(b[0] + r.Int64N(b[1]-b[0]+1)) }
	floatIn := func(b [2]float64) float64 { return math.Round(b[0] + r.Float64()*(b[1]-b[0])) }
	m := cluster.DefaultModel()
	m.StreamSyncCost = intIn(syncCostNS)
	m.KernelLaunchCost = intIn(launchCostNS)
	m.HostFlagWriteGap = intIn(flagGapNS)
	m.NVLinkBytesPerSec = floatIn(nvlinkBPS)
	m.IBBytesPerSec = floatIn(ibBPS)
	return m
}

// sensitivityModels returns n cost models for the sensitivity workload:
// model 0 is cluster.DefaultModel, the rest are perturbed draws.
func sensitivityModels(seed uint64, n int) []cluster.Model {
	r := newRNG(seed, 0)
	ms := []cluster.Model{cluster.DefaultModel()}
	for len(ms) < n {
		ms = append(ms, perturbedModel(r))
	}
	return ms
}

// request is one generated sweepd-mix request: a single point, warm (a
// gate point under the default model, already in the store) or cold (a
// small gate point under a fresh perturbed model).
type request struct {
	point string
	model *cluster.Model // nil for warm requests
}

func (q request) cold() bool { return q.model != nil }

// coldShare is the fraction of sweepd-mix requests that are cold.
const coldShare = 0.2

// requestGen is one client's request stream. Clients draw from disjoint
// slices of the point IDs (index mod clients), so two clients never ask
// for the same key at once and the store counters repeat exactly.
type requestGen struct {
	r          *rand.Rand
	warm, cold []string
}

// Stream 0 is the measured stream, stream 1 the warm-up.
func newRequestGen(seed, stream uint64, client, clients int, gateIDs []string) *requestGen {
	g := &requestGen{r: newRNG(seed, 1+stream<<16+uint64(client))}
	nSmall := 0
	for i, id := range gateIDs {
		if i%clients == client {
			g.warm = append(g.warm, id)
		}
		if isSmall(id) {
			if nSmall%clients == client {
				g.cold = append(g.cold, id)
			}
			nSmall++
		}
	}
	return g
}

func (g *requestGen) next() request {
	if g.r.Float64() < coldShare {
		m := perturbedModel(g.r)
		return request{point: g.cold[g.r.IntN(len(g.cold))], model: &m}
	}
	return request{point: g.warm[g.r.IntN(len(g.warm))]}
}

package main

import (
	"reflect"
	"testing"

	"mpipart/internal/bench"
	"mpipart/internal/cluster"
)

func stream(seed uint64, client, n int) []request {
	g := newRequestGen(seed, 0, client, sweepdClients, sortedIDs(bench.GatePoints(nil)))
	out := make([]request, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	if !reflect.DeepEqual(sensitivityModels(7, 40), sensitivityModels(7, 40)) {
		t.Error("sensitivity models differ for the same seed")
	}
	for c := 0; c < sweepdClients; c++ {
		if !reflect.DeepEqual(stream(7, c, 2000), stream(7, c, 2000)) {
			t.Errorf("client %d: request stream differs for the same seed", c)
		}
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	if reflect.DeepEqual(sensitivityModels(7, 40), sensitivityModels(8, 40)) {
		t.Error("sensitivity models equal for different seeds")
	}
	for c := 0; c < sweepdClients; c++ {
		if reflect.DeepEqual(stream(7, c, 200), stream(8, c, 200)) {
			t.Errorf("client %d: request stream equal for different seeds", c)
		}
	}
	if reflect.DeepEqual(stream(7, 0, 200), stream(7, 1, 200)) {
		t.Error("two clients draw the same stream")
	}
}

// TestPerturbedModelsInRange checks every generated model: the five swept
// parameters strictly positive and inside the cmd/sweep ranges, every other
// parameter at its calibrated default, and model 0 the default itself.
func TestPerturbedModelsInRange(t *testing.T) {
	def := cluster.DefaultModel()
	check := func(m cluster.Model) {
		t.Helper()
		ns := func(name string, v int64, r [2]int64) {
			if v <= 0 || v < r[0] || v > r[1] {
				t.Errorf("%s = %d ns, outside [%d, %d]", name, v, r[0], r[1])
			}
		}
		bps := func(name string, v float64, r [2]float64) {
			if v <= 0 || v < r[0] || v > r[1] {
				t.Errorf("%s = %g B/s, outside [%g, %g]", name, v, r[0], r[1])
			}
		}
		ns("StreamSyncCost", int64(m.StreamSyncCost), syncCostNS)
		ns("KernelLaunchCost", int64(m.KernelLaunchCost), launchCostNS)
		ns("HostFlagWriteGap", int64(m.HostFlagWriteGap), flagGapNS)
		bps("NVLinkBytesPerSec", m.NVLinkBytesPerSec, nvlinkBPS)
		bps("IBBytesPerSec", m.IBBytesPerSec, ibBPS)
		rest := m
		rest.StreamSyncCost, rest.KernelLaunchCost, rest.HostFlagWriteGap = def.StreamSyncCost, def.KernelLaunchCost, def.HostFlagWriteGap
		rest.NVLinkBytesPerSec, rest.IBBytesPerSec = def.NVLinkBytesPerSec, def.IBBytesPerSec
		if rest != def {
			t.Errorf("a parameter outside the five swept ones moved: %+v", m)
		}
	}
	for seed := uint64(0); seed < 50; seed++ {
		ms := sensitivityModels(seed, sensitivityN)
		if ms[0] != def {
			t.Fatalf("seed %d: model 0 is not the default model", seed)
		}
		for _, m := range ms[1:] {
			check(m)
		}
		for c := 0; c < sweepdClients; c++ {
			for _, q := range stream(seed, c, 500) {
				if q.cold() {
					check(*q.model)
				}
			}
		}
	}
}

// TestClientsPartitionPoints checks that the clients' point sets are
// disjoint and together cover the 62 gate points (warm) and the 30 small
// ones (cold).
func TestClientsPartitionPoints(t *testing.T) {
	ids := sortedIDs(bench.GatePoints(nil))
	warm, cold := map[string]int{}, map[string]int{}
	for c := 0; c < sweepdClients; c++ {
		g := newRequestGen(1, 0, c, sweepdClients, ids)
		for _, id := range g.warm {
			warm[id]++
		}
		for _, id := range g.cold {
			cold[id]++
		}
	}
	if len(warm) != 62 || len(cold) != 30 {
		t.Fatalf("%d warm and %d cold points, want 62 and 30", len(warm), len(cold))
	}
	for id, n := range warm {
		if n != 1 {
			t.Errorf("warm point %s drawn by %d clients", id, n)
		}
	}
	for id, n := range cold {
		if n != 1 || !isSmall(id) {
			t.Errorf("cold point %s drawn by %d clients (small: %v)", id, n, isSmall(id))
		}
	}
}

package bench

// KernelScale: the 100k-actor scale measurement behind the live_actors and
// bytes_per_actor fields of BENCH_PERF.json. Where the gate sweep measures
// the scheduler on realistic figure workloads (hundreds of actors), this
// builds one deliberately huge world — mixed Task and Proc waiters parked on
// a single Cond, the progression-engine shape at fabric scale — and records
// what each actor costs to hold: a continuation Task is a struct on the
// event heap (~hundreds of bytes), a Proc is a goroutine (~8 KB of stack),
// which is exactly why the leaf actors were converted. The benchmark twin
// lives in internal/sim/kernelbench_test.go; this function is the
// benchgate-callable form so the committed sidecar tracks the numbers.

import (
	"runtime"

	"mpipart/internal/sim"
)

// ScaleStats is one KernelScale run's result.
type ScaleStats struct {
	// Actors is the requested world size (tasks + procs, driver excluded).
	Actors int
	// LiveActors is what Kernel.LiveActors reported once every actor was
	// parked — the world size the kernel actually held.
	LiveActors int
	// BytesPerActor is the heap growth from building and parking the world,
	// divided by Actors. Dominated by the Task structs and the waiter ring;
	// Proc goroutine stacks are NOT heap and so are not included — which is
	// the honest number for the continuation design, since tasks are the
	// overwhelming majority of a scale world.
	BytesPerActor float64
	// Dispatches is the scheduler dispatch count consumed by the whole
	// measurement (spawn, park, and every broadcast round).
	Dispatches int64
}

// MeasureKernelScale builds a world of `actors` waiters — one Proc per 64
// actors, the rest continuation Tasks, matching the rank-to-leaf-actor ratio
// of a large fabric — parks them all on one Cond, then drives `rounds`
// broadcast rounds through it. Every round wakes and re-parks every actor,
// so rounds×actors dispatches flow through the Task wake path.
func MeasureKernelScale(actors, rounds int) ScaleStats {
	// Two collections settle the baseline: objects freed by the first one's
	// finalizers only go in the second.
	runtime.GC()
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	k := sim.NewKernel(1)
	c := sim.NewCond(k, "scale")
	procs := actors / 64
	for i := 0; i < procs; i++ {
		k.GoDaemonID("sp", i, func(p *sim.Proc) {
			for {
				c.Wait(p)
			}
		})
	}
	for i := procs; i < actors; i++ {
		k.SpawnTaskDaemonID("st", i, func(t *sim.Task) { c.Await(t) })
	}

	st := ScaleStats{Actors: actors}
	k.Go("driver", func(p *sim.Proc) {
		p.Wait(1) // every waiter has run once and parked on the Cond
		st.LiveActors = k.LiveActors() - 1
		runtime.GC()
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		// Signed: garbage from before the baseline can be freed here too,
		// and an unsigned difference would wrap instead of going negative.
		st.BytesPerActor = float64(int64(ms1.HeapAlloc)-int64(ms0.HeapAlloc)) / float64(actors)
		for r := 0; r < rounds; r++ {
			c.Broadcast()
			p.Wait(1)
		}
	})
	if err := k.Run(); err != nil {
		// The world is self-contained and cannot deadlock; an error here is
		// a kernel bug and the measurement is meaningless.
		panic(err)
	}
	st.Dispatches = k.Dispatched()
	k.Release()
	return st
}

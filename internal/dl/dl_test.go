package dl

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"mpipart/internal/cluster"
	"mpipart/internal/mpi"
	"mpipart/internal/nccl"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{Params: 4096, Steps: 2}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{Params: 0, Steps: 1}).Validate(); err == nil {
		t.Fatal("zero params accepted")
	}
	if err := (Config{Params: 1000, Steps: 1, BlockSize: 512}).Validate(); err == nil {
		t.Fatal("non-multiple params accepted")
	}
}

// runVariant executes a training variant SPMD and returns per-rank stats.
func runVariant(t *testing.T, topo cluster.Topology, cfg Config,
	variant func(r *mpi.Rank, comm *nccl.Comm, cfg Config) Stats) []Stats {
	t.Helper()
	w := mpi.NewWorld(topo, cluster.DefaultModel(), 1)
	comm := nccl.NewComm(w)
	stats := make([]Stats, w.Size())
	w.Spawn(func(r *mpi.Rank) {
		stats[r.ID] = variant(r, comm, cfg)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	return stats
}

func wrapMPI(r *mpi.Rank, _ *nccl.Comm, cfg Config) Stats  { return MPIAllreduce(r, cfg) }
func wrapPart(r *mpi.Rank, _ *nccl.Comm, cfg Config) Stats { return PartitionedAllreduce(r, cfg) }

func refSum(cfg Config, P int) float64 {
	w := Reference(cfg, P)
	s := 0.0
	for _, v := range w {
		s += v
	}
	return s
}

func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-7*(1+math.Abs(a)+math.Abs(b))
}

func TestMPIVariantMatchesReference(t *testing.T) {
	cfg := Config{Params: 2048, Steps: 3, BlockSize: 256}
	stats := runVariant(t, cluster.OneNodeGH200(), cfg, wrapMPI)
	want := refSum(cfg, 4)
	for rk, s := range stats {
		if !relClose(s.WeightSum, want) {
			t.Fatalf("rank %d weight sum %v, want %v", rk, s.WeightSum, want)
		}
	}
}

func TestPartitionedVariantMatchesReference(t *testing.T) {
	cfg := Config{Params: 2048, Steps: 3, BlockSize: 256, UserParts: 2}
	stats := runVariant(t, cluster.OneNodeGH200(), cfg, wrapPart)
	want := refSum(cfg, 4)
	for rk, s := range stats {
		if !relClose(s.WeightSum, want) {
			t.Fatalf("rank %d weight sum %v, want %v", rk, s.WeightSum, want)
		}
	}
}

func TestNCCLVariantMatchesReference(t *testing.T) {
	cfg := Config{Params: 2048, Steps: 3, BlockSize: 256}
	stats := runVariant(t, cluster.OneNodeGH200(), cfg, NCCLAllreduce)
	want := refSum(cfg, 4)
	for rk, s := range stats {
		if !relClose(s.WeightSum, want) {
			t.Fatalf("rank %d weight sum %v, want %v", rk, s.WeightSum, want)
		}
	}
}

func TestAllVariantsAgreeTwoNodes(t *testing.T) {
	cfg := Config{Params: 4096, Steps: 3, BlockSize: 256, UserParts: 4}
	a := runVariant(t, cluster.TwoNodeGH200(), cfg, wrapMPI)
	b := runVariant(t, cluster.TwoNodeGH200(), cfg, wrapPart)
	c := runVariant(t, cluster.TwoNodeGH200(), cfg, NCCLAllreduce)
	for rk := range a {
		if !relClose(a[rk].WeightSum, b[rk].WeightSum) || !relClose(a[rk].WeightSum, c[rk].WeightSum) {
			t.Fatalf("rank %d variants disagree: mpi=%v part=%v nccl=%v",
				rk, a[rk].WeightSum, b[rk].WeightSum, c[rk].WeightSum)
		}
	}
}

func TestRanksConvergeToIdenticalWeights(t *testing.T) {
	cfg := Config{Params: 1024, Steps: 4, BlockSize: 256, UserParts: 2}
	stats := runVariant(t, cluster.OneNodeGH200(), cfg, wrapPart)
	for rk := 1; rk < len(stats); rk++ {
		if stats[rk].WeightSum != stats[0].WeightSum {
			t.Fatalf("rank %d weights differ from rank 0: %v vs %v",
				rk, stats[rk].WeightSum, stats[0].WeightSum)
		}
	}
}

// Figs. 10/11 ordering: NCCL < Partitioned < MPI_Allreduce in step time.
func TestVariantOrdering(t *testing.T) {
	cfg := Config{Params: 1 << 17, Steps: 4, UserParts: 4} // 1 MiB gradients
	mpiS := runVariant(t, cluster.OneNodeGH200(), cfg, wrapMPI)
	partS := runVariant(t, cluster.OneNodeGH200(), cfg, wrapPart)
	ncclS := runVariant(t, cluster.OneNodeGH200(), cfg, NCCLAllreduce)
	mpiT, partT, ncclT := mpiS[0].StepTime, partS[0].StepTime, ncclS[0].StepTime
	if !(ncclT < partT && partT < mpiT) {
		t.Fatalf("ordering violated: nccl=%v part=%v mpi=%v", ncclT, partT, mpiT)
	}
}

func TestPartitionedRequiresCleanPartitioning(t *testing.T) {
	w := mpi.NewWorld(cluster.OneNodeGH200(), cluster.DefaultModel(), 1)
	w.Spawn(func(r *mpi.Rank) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for indivisible partitioning")
			}
		}()
		PartitionedAllreduce(r, Config{Params: 3 * 1024, Steps: 2, BlockSize: 1024, UserParts: 2})
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTrainingReducesLossDirection(t *testing.T) {
	// Sanity: gradient descent should move the weight sum (the model is
	// actually learning something, not a no-op).
	cfg := Config{Params: 512, Steps: 5, BlockSize: 256}
	w0 := 0.1 * float64(cfg.Params)
	got := refSum(cfg, 4)
	if got == w0 {
		t.Fatal("weights unchanged after training")
	}
}

// shardErr checks a shard against the pure data functions: exactly
// feature(rank, i), and the gradient kernel's step-0 expression bit for bit.
func shardErr(rank, params int, s shard) error {
	if len(s.x) != params || cap(s.x) != params || len(s.grad0) != params || cap(s.grad0) != params {
		return fmt.Errorf("rank %d params %d: len/cap x %d/%d grad0 %d/%d",
			rank, params, len(s.x), cap(s.x), len(s.grad0), cap(s.grad0))
	}
	for i := range s.x {
		x := feature(rank, i)
		pred := sigmoid(w0 * x)
		g := (pred - label(rank, i)) * x
		if math.Float64bits(s.x[i]) != math.Float64bits(x) || math.Float64bits(s.grad0[i]) != math.Float64bits(g) {
			return fmt.Errorf("rank %d params %d: element %d is (%v, %v), want (%v, %v)",
				rank, params, i, s.x[i], s.grad0[i], x, g)
		}
	}
	return nil
}

// The memo's ranks here are far above any simulated world's, so these
// tests own their entries whatever else the package has run.

func TestShardMemoGrowShrinkGrow(t *testing.T) {
	const rank = 1000
	var old shard
	for _, params := range []int{2048, 512, 4096, 1024, 8192} {
		s := dataShard(rank, params)
		if err := shardErr(rank, params, s); err != nil {
			t.Fatal(err)
		}
		if old.x != nil {
			// Growing builds new arrays: shards already handed out keep
			// their values.
			if err := shardErr(rank, len(old.x), old); err != nil {
				t.Fatal(err)
			}
		}
		old = s
	}
}

func TestShardMemoConcurrent(t *testing.T) {
	sizes := []int{1024, 8192, 256, 4096, 2048, 512}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range sizes {
				rank := 1100 + (g+j)%3
				params := sizes[(g+j)%len(sizes)]
				if err := shardErr(rank, params, dataShard(rank, params)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestShardMemoSharesPrefix guards the memo's memory bound: a smaller model
// reads a prefix of the rank's one array instead of a copy of its own.
func TestShardMemoSharesPrefix(t *testing.T) {
	const rank = 1200
	big := dataShard(rank, 4096)
	small := dataShard(rank, 1024)
	if &small.x[0] != &big.x[0] || &small.grad0[0] != &big.grad0[0] {
		t.Fatal("smaller shard does not alias the larger shard's prefix")
	}
	bigger := dataShard(rank, 8192)
	if again := dataShard(rank, 4096); &again.x[0] != &bigger.x[0] || &again.grad0[0] != &bigger.grad0[0] {
		t.Fatal("after growth, shards do not alias the grown arrays")
	}
}

// BenchmarkGradientKernel times one BCE gradient pass of a one-rank world at
// g=128 (128 blocks of 1024 threads). The step-0 pass, which copies the
// memo, runs before the timer starts, so every timed pass computes.
func BenchmarkGradientKernel(b *testing.B) {
	cfg := Config{Params: 128 * 1024, Steps: 1}.withDefaults()
	w := mpi.NewWorld(cluster.Topology{Nodes: 1, GPUsPerNode: 1}, cluster.DefaultModel(), 1)
	defer w.Free()
	w.Spawn(func(r *mpi.Rank) {
		p := r.Proc()
		m := newModel(r, cfg)
		r.Stream.Launch(m.gradientSpec(nil))
		r.Stream.Synchronize(p)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Stream.Launch(m.gradientSpec(nil))
			r.Stream.Synchronize(p)
		}
		b.StopTimer()
	})
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
}

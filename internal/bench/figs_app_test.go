package bench

import (
	"math"
	"testing"

	"mpipart/internal/cluster"
	"mpipart/internal/dl"
)

// TestDLWeightSumBits pins the DL proxy's numerics, which the golden does
// not cover (DLPoint reports only step_ns): every variant's final weight
// checksum must keep these exact bit patterns. Grids run in the order 256,
// 128, 512, so the shard memo serves a grown, a shrunk and a regrown
// request on each topology.
func TestDLWeightSumBits(t *testing.T) {
	cases := []struct {
		nodes, grid int
		want        uint64
	}{
		{1, 256, 0x40d91fd3d6df5b09},
		{1, 128, 0x40c91fd6991e505c},
		{1, 512, 0x40e91fd07148a735},
		{2, 256, 0x40d91fa33b7ce934},
		{2, 128, 0x40c91fa3816d7d93},
		{2, 512, 0x40e91fa3a7bcd276},
	}
	for _, c := range cases {
		topo := cluster.Topology{Nodes: c.nodes, GPUsPerNode: 4}
		cfg := dl.Config{Params: c.grid * 1024, Steps: DLSteps, UserParts: 4}
		for _, variant := range []string{"mpi", "partitioned", "nccl"} {
			st := MeasureDL(topo, cfg, dlVariant(variant))
			if got := math.Float64bits(st.WeightSum); got != c.want {
				t.Errorf("%d node(s) g=%d %s: WeightSum bits %#x (%v), want %#x",
					c.nodes, c.grid, variant, got, st.WeightSum, c.want)
			}
		}
	}
}

package main

import (
	"testing"
)

// TestExactCountsRepeat runs small fixed amounts of the in-process
// workloads twice and requires the deterministic counts — dispatches,
// elided events, runner and store dispositions — to repeat exactly.
func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cases := []struct {
		name   string
		setup  func() (instance, error)
		rounds int
	}{
		{"sensitivity", func() (instance, error) { return newSensitivity(3, 3) }, 1},
		{"sweepd-mix", func() (instance, error) { return setupSweepd(3) }, 60},
	}
	for _, c := range cases {
		var got []counts
		for run := 0; run < 2; run++ {
			inst, err := c.setup()
			if err != nil {
				t.Fatal(err)
			}
			ph, cnt, err := runPhase(inst, control{rounds: c.rounds})
			inst.close()
			if err != nil {
				t.Fatal(err)
			}
			if ph.failed != 0 || cnt.dispatches == 0 || cnt.computed == 0 || cnt.hits == 0 {
				t.Fatalf("%s: failed %d, counts %+v", c.name, ph.failed, cnt)
			}
			got = append(got, cnt)
		}
		if got[0] != got[1] {
			t.Errorf("%s: counts differ between runs:\n%+v\n%+v", c.name, got[0], got[1])
		}
	}
}

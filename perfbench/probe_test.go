package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestBusyAndTail(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	// Two workers: A runs [0,10]; B runs [0,4], [4,8], then the last
	// point [8,12]. A goes idle at 10, so the tail is 12-10.
	runs := []interval{{at(0), at(10)}, {at(0), at(4)}, {at(4), at(8)}, {at(8), at(12)}}
	busy, tail := busyAndTail(runs, at(12))
	if busy != 22*time.Millisecond || tail != 2*time.Millisecond {
		t.Errorf("busy %v tail %v, want 22ms 2ms", busy, tail)
	}
	// One worker: no tail beyond the last point.
	busy, tail = busyAndTail(runs[1:], at(12))
	if busy != 12*time.Millisecond || tail != 0 {
		t.Errorf("sequential: busy %v tail %v, want 12ms 0", busy, tail)
	}
}

func TestTracerParents(t *testing.T) {
	tr := newTracer()
	at := func(us int) time.Time { return tr.epoch.Add(time.Duration(us) * time.Microsecond) }
	tr.add("point", "k1", "p1", at(10), at(20))
	tr.add("store.load", "k1", "", at(12), at(13))
	tr.add("store.load", "k2", "", at(50), at(51))
	tr.add("phase", "", "w", at(0), at(100))
	tr.add("probe.world_build", "", "", at(200), at(201))
	tr.addPlaced("serve.compute", "k1", "p1", at(11), at(19))
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.dump(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct{ Spans []span }
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	want := []int{3, 0, 3, -1, -1, 0} // the placed span is never a parent
	for i, s := range got.Spans {
		if s.Parent != want[i] {
			t.Errorf("span %d (%s %s): parent %d, want %d", i, s.Name, s.ID, s.Parent, want[i])
		}
	}
}

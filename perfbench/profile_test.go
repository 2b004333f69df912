package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"mpipart/internal/cluster"
	"mpipart/internal/runner"
)

// pbuf is a minimal protobuf encoder for building test profiles.
type pbuf struct{ b []byte }

func (p *pbuf) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *pbuf) uint(field int, x uint64) { p.varint(uint64(field) << 3); p.varint(x) }

func (p *pbuf) msg(field int, body []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(body)))
	p.b = append(p.b, body...)
}

// testProfile encodes a CPU profile with one sample (1 count, 10 ms) per
// stack. A stack lists locations leaf first; a location lists its
// functions innermost (inlined) first.
func testProfile(t *testing.T, stacks [][][]string) []byte {
	var prof pbuf
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pbuf
		m.uint(1, str(vt[0]))
		m.uint(2, str(vt[1]))
		prof.msg(fProfileSampleType, m.b)
	}
	funcs := map[string]uint64{}
	var locID uint64
	for _, stack := range stacks {
		var locs pbuf // packed location ids
		for _, loc := range stack {
			locID++
			var l pbuf
			l.uint(fLocationID, locID)
			for _, fn := range loc {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					var f pbuf
					f.uint(fFunctionID, id)
					f.uint(fFunctionName, str(fn))
					prof.msg(fProfileFunction, f.b)
				}
				var line pbuf
				line.uint(fLineFunction, id)
				l.msg(fLocationLine, line.b)
			}
			prof.msg(fProfileLocation, l.b)
			locs.varint(locID)
		}
		var s, vals pbuf
		s.msg(fSampleLocation, locs.b)
		vals.varint(1)
		vals.varint(10e6)
		s.msg(fSampleValue, vals.b)
		prof.msg(fProfileSample, s.b)
	}
	for _, s := range strs {
		prof.msg(fProfileStrings, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestAttributeInnermostProgramFrame(t *testing.T) {
	stacks := [][][]string{
		{{"runtime.memmove"}, {"mpipart/internal/ucx.(*Endpoint).PutPartitionCommit"}, {"mpipart/internal/sim.(*Kernel).runSingle"}},
		{{"math.Exp"}, {"mpipart/internal/dl.gradKernel.func1"}, {"mpipart/internal/gpu.(*Stream).run"}},
		{{"mpipart/internal/gpu.inlined", "mpipart/internal/core.caller"}, {"mpipart/internal/sim.run"}},
		{{"runtime.mallocgc"}, {"mpipart/internal/runner/store.(*DiskStore).Load"}},
		{{"runtime.scanobject"}, {"runtime.gcBgMarkWorker"}, {"runtime.goexit"}},
		{{"encoding/json.Marshal"}, {"main.main"}, {"runtime.main"}},
	}
	got, err := attribute(testProfile(t, stacks))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"ucx": 1.0 / 6, "dl": 1.0 / 6, "gpu": 1.0 / 6, "store": 1.0 / 6, "gc": 1.0 / 6, "other": 1.0 / 6}
	if len(got) != len(want) {
		t.Fatalf("got layers %v, want %v", got, want)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("%s: got %v, want %v", k, got[k], v)
		}
	}
}

// TestAttributeRealProfile profiles real simulator work and checks that the
// shares sum to one and the kernel is charged.
func TestAttributeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	m := cluster.DefaultModel()
	pts := smallGatePoints(&m)
	for t0 := time.Now(); time.Since(t0) < 500*time.Millisecond; {
		runner.New(1).Run(pts)
	}
	pprof.StopCPUProfile()
	frac, err := attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range frac {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 || frac["sim"] <= 0 {
		t.Errorf("shares %v: sum %v, sim %v", frac, sum, frac["sim"])
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"mpipart/internal/sim.(*Kernel).runSingle":        "sim",
		"mpipart/internal/runner/store.(*DiskStore).Save": "store",
		"mpipart/internal/bench.DLPoint.func1":            "bench",
		"mpipart/perfbench.main":                          "",
		"runtime.memmove":                                 "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

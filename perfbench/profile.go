package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// CPU-profile attribution. A runtime/pprof CPU profile is a gzipped
// profile.proto message; the standard library writes it but offers no
// reader, so this file decodes the few fields attribution needs. Each
// sample is charged to the innermost mpipart/internal/... frame on its
// stack (inlined frames included), so a memmove under ucx counts to ucx and
// math.Exp under dl counts to dl. Samples with no such frame go to "gc"
// when every frame is in the Go runtime (scheduler, background GC) and to
// "other" otherwise (the benchmark harness, net/http, encoding/json).

const internalPrefix = "mpipart/internal/"

// layerOf maps a fully qualified function name to its layer: the last
// element of the package path under mpipart/internal ("runner/store" is
// "store"), or "" for functions outside the program.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		pkg = pkg[i+1:]
	}
	return pkg
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/")
}

// attribute decodes a gzipped CPU profile and returns the share of sampled
// CPU time charged to each layer. The shares sum to 1 unless the profile
// holds no samples, in which case the map is empty.
func attribute(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	vi := 0
	if p.nValues > 1 {
		vi = 1 // cpu nanoseconds; index 0 is the sample count
	}
	total := 0.0
	by := map[string]float64{}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		layer, allRuntime := "", true
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				fn := p.strs[p.funcName[fid]]
				if layer = layerOf(fn); layer != "" {
					break
				}
				allRuntime = allRuntime && isRuntime(fn)
			}
			if layer != "" {
				break
			}
		}
		if layer == "" {
			layer = "other"
			if allRuntime {
				layer = "gc"
			}
		}
		v := float64(s.values[vi])
		by[layer] += v
		total += v
	}
	for k := range by {
		by[k] /= total
	}
	return by, nil
}

type sample struct {
	locs   []uint64
	values []int64
}

// profile is the decoded subset of profile.proto.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location -> function ids, innermost first
	funcName map[uint64]int64    // function -> string-table index
	strs     []string
	nValues  int // number of sample types
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6
	fSampleLocation    = 1
	fSampleValue       = 2
	fLocationID        = 1
	fLocationLine      = 4
	fLineFunction      = 1
	fFunctionID        = 1
	fFunctionName      = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case fProfileSampleType:
			p.nValues++
		case fProfileSample:
			var s sample
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case fSampleLocation:
					s.locs = appendVarints(s.locs, wire, v, sub)
				case fSampleValue:
					for _, x := range appendVarints(nil, wire, v, sub) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(sub, func(num, wire int, v uint64, sub []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case fProfileStrings:
			p.strs = append(p.strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, s := range p.funcName {
		if s < 0 || int(s) >= len(p.strs) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, s, len(p.strs))
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field's values, packed (wire
// type 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, sub []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(sub) > 0 {
		x, n := varint(sub)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		sub = sub[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling f with each field's number,
// wire type, varint value (wire type 0) and payload (wire type 2).
func eachField(b []byte, f func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint in field %d", num)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64 in field %d", num)
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length in field %d", num)
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32 in field %d", num)
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d in field %d", wire, num)
		}
		if err := f(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning its value and length (0 if
// b is truncated).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

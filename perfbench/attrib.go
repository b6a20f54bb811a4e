package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// Profile attribution: every CPU or allocation sample is charged to
// the innermost frame of its stack that belongs to the program
// (function names under "repro/") or to the benchmark itself (package
// main). Runtime frames below it — malloc, GC assists, map growth —
// therefore count against the module that called them. Stacks with no
// such frame are background GC ("runtime.gc") or "other" (net/http
// plumbing, the scheduler, syscalls).

// Layers that are not program modules.
const (
	layerBench = "bench"
	layerGC    = "runtime.gc"
	layerOther = "other"
)

// modules are the program's packages, each a layer of its own.
var modules = []string{
	"sim", "topology", "machine", "fabric", "cbp", "mpi", "offload", "ompss",
	"apps", "linalg", "resource", "resil", "energy", "obs", "expt",
	"core", "rng", "stats", "deep", "serve", "store",
}

// moduleOf maps a function name to its layer: the package under
// repro/ (sub-packages charge to their module), or the benchmark for
// package main.
func moduleOf(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") {
		return layerBench, true
	}
	rest, ok := strings.CutPrefix(fn, "repro/")
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, ".["); i >= 0 {
		rest = rest[:i]
	}
	rest = strings.TrimPrefix(rest, "internal/")
	mod, _, _ := strings.Cut(rest, "/")
	return mod, true
}

// layerOf returns the layer a stack is charged to; frames lists
// function names innermost first.
func layerOf(frames []string) string {
	for _, f := range frames {
		if m, ok := moduleOf(f); ok {
			return m
		}
	}
	for _, f := range frames {
		switch f {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return layerGC
		}
	}
	return layerOther
}

// shares normalises per-layer weights to fractions of their total.
func shares(w map[string]float64) map[string]float64 {
	var total float64
	for _, v := range w {
		total += v
	}
	out := make(map[string]float64, len(w))
	for k, v := range w {
		if total > 0 {
			out[k] = v / total
		}
	}
	return out
}

// cpuByLayer decodes a runtime/pprof CPU profile and sums its CPU time
// per layer.
func cpuByLayer(prof []byte) (map[string]float64, error) {
	p, err := parseProfile(prof)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, s := range p.samples {
		var frames []string
		for _, id := range s.locs {
			frames = append(frames, p.locFuncs[id]...)
		}
		v := s.values[len(s.values)-1] // cpu nanoseconds follow the sample count
		out[layerOf(frames)] += float64(v)
	}
	return out, nil
}

// memProfile snapshots the runtime's cumulative allocation profile.
// It is current as of the last completed GC; callers run runtime.GC
// first.
func memProfile() []runtime.MemProfileRecord {
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		m, ok := runtime.MemProfile(recs, true)
		if ok {
			return recs[:m]
		}
		n = m
	}
}

// allocByLayer sums the bytes allocated between two profile snapshots
// per layer, unsampled the way pprof does it.
func allocByLayer(before, after []runtime.MemProfileRecord) map[string]float64 {
	type tally struct{ bytes, objects int64 }
	prev := make(map[[32]uintptr]tally, len(before))
	for _, r := range before {
		prev[r.Stack0] = tally{r.AllocBytes, r.AllocObjects}
	}
	out := make(map[string]float64)
	for _, r := range after {
		p := prev[r.Stack0]
		b, n := r.AllocBytes-p.bytes, r.AllocObjects-p.objects
		if b <= 0 || n <= 0 {
			continue
		}
		out[layerOf(stackFuncs(r.Stack()))] += unsample(float64(b), float64(n), runtime.MemProfileRate)
	}
	return out
}

// unsample scales sampled allocation bytes to an estimate of all bytes
// allocated, as pprof's heap profile does for a Poisson sampler.
func unsample(bytes, objects float64, rate int) float64 {
	if rate <= 1 || objects == 0 {
		return bytes
	}
	return bytes / (1 - math.Exp(-bytes/objects/float64(rate)))
}

// stackFuncs symbolises a stack, inlined calls included, innermost
// first.
func stackFuncs(pcs []uintptr) []string {
	var out []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		out = append(out, f.Function)
		if !more {
			return out
		}
	}
}

// profile is the part of a pprof protobuf the attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]string // location id -> function names, innermost first
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// parseProfile decodes a gzipped pprof profile.proto (the format
// runtime/pprof writes): samples, locations with their inlined lines,
// functions and the string table.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locLine = map[uint64][]uint64{} // location id -> function ids, innermost first
		p       = &profile{locFuncs: map[uint64][]string{}}
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if len(s.values) == 0 && err == nil {
				err = errors.New("sample without values")
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLine[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for id, fns := range locLine {
		names := make([]string, len(fns))
		for i, fid := range fns {
			if si := funcs[fid]; si >= 0 && si < int64(len(strs)) {
				names[i] = strs[si]
			}
		}
		p.locFuncs[id] = names
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field
// number and either its varint value or its length-delimited bytes.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that arrived either
// unpacked (one value v) or packed (b holds the varints).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

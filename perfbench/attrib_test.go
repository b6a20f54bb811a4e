package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"testing"
)

func TestModuleOf(t *testing.T) {
	for _, c := range []struct {
		fn   string
		want string
		ok   bool
	}{
		{"repro/internal/sim.(*Engine).Run", "sim", true},
		{"repro/internal/fabric.(*Network).Send.func1", "fabric", true},
		{"repro/internal/serve.(*Server).handleSubmit", "serve", true},
		{"repro/deep.(*Runner).Run.func2", "deep", true},
		{"repro/deep.ContentHash", "deep", true},
		{"repro/internal/store/sub.F", "store", true},
		{"repro/internal/sim.push[go.shape.int]", "sim", true},
		{"main.(*deepdMix).request", layerBench, true},
		{"runtime.mallocgc", "", false},
		{"runtime.main", "", false},
		{"net/http.(*conn).serve", "", false},
		{"reprox/internal/sim.F", "", false},
	} {
		got, ok := moduleOf(c.fn)
		if got != c.want || ok != c.ok {
			t.Errorf("moduleOf(%q) = %q, %v; want %q, %v", c.fn, got, ok, c.want, c.ok)
		}
	}
}

// TestLayerOfInnermostFrame charges fixed stacks (innermost first) the
// way the attribution does.
func TestLayerOfInnermostFrame(t *testing.T) {
	for _, c := range []struct {
		name   string
		frames []string
		want   string
	}{
		{"runtime frames count against their caller", []string{
			"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject",
			"repro/internal/sim.(*Engine).Schedule", "repro/internal/fabric.(*Network).Send",
			"repro/internal/expt.runE15", "repro/deep.(*Runner).Run.func2", "runtime.goexit",
		}, "sim"},
		{"innermost program frame wins over outer ones", []string{
			"repro/internal/topology.(*Torus3D).Route", "repro/internal/fabric.(*Network).Send",
			"repro/internal/sim.(*Engine).Run",
		}, "topology"},
		{"benchmark client code", []string{
			"encoding/json.(*decodeState).object", "encoding/json.Unmarshal",
			"main.(*deepdMix).do", "main.(*deepdMix).request", "main.(*deepdMix).drive.func1",
		}, layerBench},
		{"program below the benchmark", []string{
			"crypto/sha256.block", "repro/deep.ContentHash", "repro/internal/serve.(*JobSpec).contentKey",
			"repro/internal/serve.(*Server).handleSubmit", "net/http.HandlerFunc.ServeHTTP",
		}, "deep"},
		{"background GC", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker", "runtime.goexit",
		}, layerGC},
		{"background sweep", []string{"runtime.sweepone", "runtime.bgsweep"}, layerGC},
		{"net/http plumbing", []string{
			"syscall.Syscall", "net.(*conn).Read", "net/http.(*persistConn).readLoop",
		}, layerOther},
		{"empty stack", nil, layerOther},
	} {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestShares(t *testing.T) {
	got := shares(map[string]float64{"sim": 3, "fabric": 1})
	if got["sim"] != 0.75 || got["fabric"] != 0.25 {
		t.Errorf("shares = %v", got)
	}
	if got := shares(map[string]float64{"sim": 0}); got["sim"] != 0 {
		t.Errorf("shares of a zero total = %v", got)
	}
}

// pb is a minimal protobuf encoder for profile fixtures.
type pb []byte

func (b pb) varint(field int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(field int, v []byte) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func (b pb) packed(field int, vs ...uint64) pb {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return b.bytes(field, p)
}

// TestCPUByLayerDecodesProfile builds a pprof profile with packed and
// unpacked repeated fields and an inlined location, then checks the
// decoded per-layer CPU time.
func TestCPUByLayerDecodesProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mallocgc", "repro/internal/sim.(*Engine).Schedule",
		"repro/internal/fabric.(*Network).Send", "runtime.gcBgMarkWorker", "main.main"}
	var prof pb
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		prof = prof.bytes(1, pb(nil).varint(1, vt[0]).varint(2, vt[1]))
	}
	// Samples: leaf location first. Values: count, cpu ns.
	prof = prof.bytes(2, pb(nil).packed(1, 1, 2, 3).packed(2, 3, 30)) // malloc <- Schedule (inlined in Send)
	prof = prof.bytes(2, pb(nil).varint(1, 4).packed(2, 1, 10))       // GC worker, unpacked location
	prof = prof.bytes(2, pb(nil).packed(1, 3).packed(2, 2, 20))       // main
	line := func(fn uint64) []byte { return pb(nil).varint(1, fn).varint(2, 7) }
	prof = prof.bytes(4, pb(nil).varint(1, 1).bytes(4, line(1)))
	// Location 2: Schedule inlined into Send, innermost line first.
	prof = prof.bytes(4, pb(nil).varint(1, 2).varint(3, 0x1000).bytes(4, line(2)).bytes(4, line(3)))
	prof = prof.bytes(4, pb(nil).varint(1, 3).bytes(4, line(5)))
	prof = prof.bytes(4, pb(nil).varint(1, 4).bytes(4, line(4)))
	for id, name := range []uint64{5, 6, 7, 8, 9} {
		prof = prof.bytes(5, pb(nil).varint(1, uint64(id+1)).varint(2, name))
	}
	for _, s := range strs {
		prof = prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()

	got, err := cpuByLayer(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 30, layerGC: 10, layerBench: 20}
	if len(got) != len(want) {
		t.Fatalf("cpuByLayer = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("cpuByLayer[%s] = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}
	if _, err := cpuByLayer([]byte("not a profile")); err == nil {
		t.Error("cpuByLayer accepted garbage")
	}
}

// allocSink keeps allocations alive so the compiler cannot remove them.
var allocSink [][]byte

//go:noinline
func allocateForProfile(n int) {
	for range n {
		allocSink = append(allocSink, make([]byte, 4096))
	}
}

// TestAllocByLayerChargesTheAllocatingModule takes two real allocation
// profiles around allocations made here and checks they are charged
// to this package's layer.
func TestAllocByLayerChargesTheAllocatingModule(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	runtime.GC()
	before := memProfile()
	allocateForProfile(256)
	runtime.GC()
	got := allocByLayer(before, memProfile())
	allocSink = nil
	layer, _ := moduleOf(funcName(allocateForProfile))
	if got[layer] < 256*4096 {
		t.Errorf("alloc charged to %q = %v bytes, want >= %d (all: %v)", layer, got[layer], 256*4096, got)
	}
}

func funcName(f func(int)) string {
	return runtime.FuncForPC(reflect.ValueOf(f).Pointer()).Name()
}

func TestUnsample(t *testing.T) {
	if got := unsample(1000, 10, 1); got != 1000 {
		t.Errorf("unsample at rate 1 = %v", got)
	}
	// One 512 KiB object at the default rate: scale 1/(1-e^-1).
	if got, want := unsample(512<<10, 1, 512<<10), float64(512<<10)/(1-math.Exp(-1)); !near(got, want) {
		t.Errorf("unsample = %v, want %v", got, want)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzJobSpec drives the spec decoder and normaliser the way a submit
// does: any bytes that decode into a JobSpec either normalise or fail
// with a typed *Error, never a panic; a normalised torus machine has
// exactly its torus volume in nodes; and a normalised spec is a fixed
// point: normalising it again, in place or after a wire round trip,
// keeps its content key.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		// The spec-test fixtures, in wire form.
		`{"experiment":"E01"}`,
		`{"experiment":"E01","fidelity":"default","scale":1,"deadline_s":5}`,
		`{"experiment":"E01","seed":7,"energy":true,"trace":true,"metrics_every_s":0.5}`,
		`{"experiment":"E15","seed":7,"domains":2,"max_window":4,"max_nodes":5000}`,
		`{"workload":{"kind":"spmv","nx":32,"ny":32,"iters":10}}`,
		`{"workload":{"kind":"spmv","n":64,"steps":3,"messages":9,"topology":"fattree"}}`,
		`{"workload":{"kind":"spmv","nx":8,"ny":8,"iters":2},"machine":{"cluster_nodes":4,"booster_nodes":4,"cluster_ranks":4},"seed":42}`,
		`{"workload":{"kind":"cholesky","n":32,"tile_size":16,"workers":2}}`,
		`{"workload":{"kind":"stencil","ranks":2,"place_on_booster":true},"energy":true}`,
		`{"workload":{"kind":"nbody","n":16,"steps":2},"fidelity":"flow"}`,
		`{"workload":{"kind":"jobs","dynamic":true,"jobs":[{"ID":0,"Arrival":0,"Duration":5,"Boosters":2}]}}`,
		`{"workload":{"kind":"traffic","topology":"torus","pattern":"random"},"machine":{"booster_torus":[3,3,3]}}`,
		`{"workload":{"kind":"traffic","topology":"fattree","pattern":"neighbor"}}`,
		`{"workload":{"kind":"spmv"},"machine":{"faults":{"node_mtbf_s":50,"repair_s":2,"horizon_s":300}},"domains":2}`,
		`{"workload":{"kind":"spmv"},"machine":{"booster_nodes":9,"booster_torus":[2,2,2]}}`,
		`{"workload":{"kind":"spmv"},"machine":{"booster_torus":[2097152,2097152,4194304]}}`,
		`{"experiment":"E99"}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec := &JobSpec{}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(spec) != nil {
			return
		}
		if err := spec.Normalize(); err != nil {
			var typed *Error
			if !errors.As(err, &typed) {
				t.Fatalf("untyped normalise error %T: %v", err, err)
			}
			return
		}
		if m := spec.Machine; m != nil && len(m.BoosterTorus) == 3 {
			x, y, z, n := m.BoosterTorus[0], m.BoosterTorus[1], m.BoosterTorus[2], m.BoosterNodes
			if n%x != 0 || n/x%y != 0 || n/x/y != z {
				t.Fatalf("booster_torus %v normalised to %d nodes", m.BoosterTorus, n)
			}
		}
		key, err := spec.ContentKey()
		if err != nil {
			t.Fatal(err)
		}
		wire, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if normKey(t, spec) != key {
			t.Fatalf("re-normalising %s moved its key", wire)
		}
		decoded := &JobSpec{}
		if err := json.Unmarshal(wire, decoded); err != nil {
			t.Fatal(err)
		}
		if normKey(t, decoded) != key {
			t.Fatalf("round trip of %s moved its key", wire)
		}
	})
}

package machine

import (
	"reflect"
	"testing"

	"repro/internal/fabric"
)

// TestFabricParClamping: domain counts clamp to the partitionable unit
// (z planes for the torus slabs, leaves for the fat tree) and never
// drop below one.
func TestFabricParClamping(t *testing.T) {
	if b := SlabBounds(8, 4, 64); len(b)-1 != 8 {
		t.Fatalf("fat-tree domains not clamped to leaves: %v", b)
	}
	if b := SlabBounds(8, 4, 0); !reflect.DeepEqual(b, []int{0, 32}) {
		t.Fatalf("fat-tree k=0 not clamped to one domain: %v", b)
	}
	if b := SlabBounds(8, 4, 3); !reflect.DeepEqual(b, []int{0, 8, 20, 32}) {
		t.Fatalf("k=3 over 8 leaves not leaf-aligned: %v", b)
	}
	if doms, _ := BoosterFabricPar(4, 4, 3, 64, fabric.FidelityFlow, 1); doms.Domains() != 3 {
		t.Fatalf("torus domains not clamped to z planes: %d", doms.Domains())
	}
	if doms, _ := BoosterFabricPar(4, 4, 3, -2, fabric.FidelityFlow, 1); doms.Domains() != 1 {
		t.Fatalf("torus k<0 not clamped to 1: %d", doms.Domains())
	}
}

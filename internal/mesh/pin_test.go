package mesh

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"reflect"
	"runtime"
	"testing"
)

// meshPins are the SHA-256 digests of every exported field of New(level),
// taken before the per-cell CCW sorts computed their angle keys once (G6:
// before the construction loops ran on several workers). A rewrite of
// the mesh construction must reproduce them bit for bit.
var meshPins = []string{
	0: "ea51781ecb76938bb52d4ee1ac62ba9d1847cf56bb1c11516dbb20727accbfdf",
	1: "d918787952de3175daef5d77222400ebc60cd1af0d43d798a44928340b4a9def",
	2: "dc1f45f64bf34e68b96e847a72271d3942d16790052b2b4f4806e2b9e1b95acf",
	3: "679ca5365bca502225dbdc523757f15b0a6ad7f3f40d3ad91a974ee8181cf263",
	4: "037136f0817652a63608a6120246f0b930acb41930f27dcef11e476d4449652a",
	5: "941106edaf92500d0b56c68281f26a94bc2e72feb455205dc7c15203223f2380",
	6: "ca051e9ce283520acf43fe0b790c8973a44f43b511da86847c3ae7fd9eeca6cc",
}

// bfsG6Pin is the digest of New(6).ReorderBFS(), the mesh gristd and the
// serve benchmarks build, taken before Reorder's copies ran on several
// workers.
const bfsG6Pin = "7892c41fe641fea5f4643e2f0415b788e5f8a382e39dbc7f62621dbcb945463c"

// hashFields writes every exported field of the struct v, in declaration
// order, as little-endian bytes (ints widened to int64).
func hashFields(h hash.Hash, v any) {
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		if !rv.Type().Field(i).IsExported() {
			continue
		}
		if f.Kind() == reflect.Int {
			binary.Write(h, binary.LittleEndian, f.Int())
			continue
		}
		if err := binary.Write(h, binary.LittleEndian, f.Interface()); err != nil {
			panic(fmt.Sprintf("field %s: %v", rv.Type().Field(i).Name, err))
		}
	}
}

// TestMeshPinned: the mesh arrays of G0-G5 hash to their pins. The
// geometry is float arithmetic that arm64 may fuse into multiply-adds, so
// the pins hold on amd64.
func TestMeshPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("mesh pins are amd64 digests")
	}
	for level, want := range meshPins {
		h := sha256.New()
		hashFields(h, New(level))
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
			t.Errorf("G%d mesh hashes to %s, pinned %s", level, got, want)
		}
	}
}

// TestConstructionScheduleIndependent: every parallel loop of New and
// Reorder writes only its own entity, so the meshes built on one, two and
// three workers (ParallelFor's chunk boundaries move with the count) hash
// the same, and the reordered G6 mesh to its pin.
func TestConstructionScheduleIndependent(t *testing.T) {
	digest := func(m *Mesh) string {
		h := sha256.New()
		hashFields(h, m)
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	build := func(procs int) [2]string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return [2]string{digest(New(5)), digest(New(6).ReorderBFS())}
	}
	one := build(1)
	for _, procs := range []int{2, 3} {
		if got := build(procs); got != one {
			t.Errorf("on %d workers New(5), New(6).ReorderBFS() hash to %v; on one worker to %v", procs, got, one)
		}
	}
	if runtime.GOARCH == "amd64" && one[1] != bfsG6Pin {
		t.Errorf("New(6).ReorderBFS() hashes to %s, pinned %s", one[1], bfsG6Pin)
	}
}

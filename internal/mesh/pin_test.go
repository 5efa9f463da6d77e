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
// taken before the per-cell CCW sorts computed their angle keys once. A
// rewrite of the mesh construction must reproduce them bit for bit.
var meshPins = []string{
	0: "ea51781ecb76938bb52d4ee1ac62ba9d1847cf56bb1c11516dbb20727accbfdf",
	1: "d918787952de3175daef5d77222400ebc60cd1af0d43d798a44928340b4a9def",
	2: "dc1f45f64bf34e68b96e847a72271d3942d16790052b2b4f4806e2b9e1b95acf",
	3: "679ca5365bca502225dbdc523757f15b0a6ad7f3f40d3ad91a974ee8181cf263",
	4: "037136f0817652a63608a6120246f0b930acb41930f27dcef11e476d4449652a",
	5: "941106edaf92500d0b56c68281f26a94bc2e72feb455205dc7c15203223f2380",
}

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

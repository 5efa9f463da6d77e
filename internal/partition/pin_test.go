package partition

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"gristgo/internal/mesh"
)

// decomposePins are the SHA-256 digests of the DecomposeWeighted part
// maps, per mesh level and weighting, over nparts {2, 3, 4, 7, 16, 48} x
// seeds {1, 12345}, taken before the partitioner's sorts, renumbering and
// coarsening were rewritten. Any rewrite must reproduce them.
var decomposePins = map[string]string{
	"G2/uniform":  "705a8a30c9ef1976db1d31f8c1fe4eb2d2d2ca02ed1d32a9a45aa2fa2ce403d3",
	"G2/weighted": "8eef2f3c3f8b4a99398b45c2bf0d306a7dcef505536b75d02d91adad0aac2720",
	"G3/uniform":  "0cfba261e3c5622d8eb22d8bb774598d934d98d231f37a08532fb2e4e2cc2ffc",
	"G3/weighted": "9613594bd238f3112e11d21052c75ffa70bf6eec9cd7e1a68ab74d13af5b976f",
	"G4/uniform":  "d93cfb5d8baa1bd56384be7da8206547c14c56ed938ab7b1f8baea0167da050f",
	"G4/weighted": "bf0b9fbcaf173d3cbb33b69caaf7e354c851cb8723e110756b730e83b569d8b0",
	"G5/uniform":  "d1392057f89046d120d1bc25f4f74489b4157379a976866d84b33a6a505b1fba",
	"G5/weighted": "cbb8e25704701e61d936d7b1907351cc95ac69f1e11f0ed1d48bb77ebddbbfd0",
}

// restartPins are the SHA-256 digests of the Decompose part maps gristd
// and the benchmark build on BFS-ordered meshes at seed 12345: the
// plan's 4 parts and the tiler's 48 tiles at G6, the 2-rank plan at G5.
// Taken before refineFM kept per-vertex external/internal weights.
var restartPins = []struct {
	level, nparts int
	sum           string
}{
	{5, 2, "4184e73cfdfa4d06540136f01d1ba5f7890fe7fadaca71ef7fdc2c2d47920985"},
	{6, 4, "e689062b46705ff4e3a9b77684561548eba582ae4d4e98e0b5d2c9797e9a48e7"},
	{6, 48, "fec251affe01d44dcb4a6c227e62820e7625384f1fb0f5b752b373d51eec8dce"},
}

// TestDecomposePinned: the part maps are bit-for-bit those pinned.
func TestDecomposePinned(t *testing.T) {
	for level := 2; level <= 5; level++ {
		m := mesh.New(level)
		skew := make([]int32, m.NCells)
		for c := range skew {
			skew[c] = 1 + int32(c%5)*int32(c%3)
		}
		for _, wt := range []struct {
			name string
			w    []int32
		}{{"uniform", nil}, {"weighted", skew}} {
			h := sha256.New()
			for _, nparts := range []int{2, 3, 4, 7, 16, 48} {
				for _, seed := range []int64{1, 12345} {
					d, err := DecomposeWeighted(m, nparts, seed, wt.w)
					if err != nil {
						fmt.Fprintf(h, "error %d %d;", nparts, seed)
						continue
					}
					binary.Write(h, binary.LittleEndian, d.Part)
				}
			}
			key := fmt.Sprintf("G%d/%s", level, wt.name)
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != decomposePins[key] {
				t.Errorf("%s part maps hash to %s, pinned %s", key, got, decomposePins[key])
			}
		}
	}
	bfs := map[int]*mesh.Mesh{}
	for _, pin := range restartPins {
		if bfs[pin.level] == nil {
			bfs[pin.level] = mesh.New(pin.level).ReorderBFS()
		}
		d, err := Decompose(bfs[pin.level], pin.nparts, 12345)
		if err != nil {
			t.Fatalf("G%d BFS, %d parts: %v", pin.level, pin.nparts, err)
		}
		h := sha256.New()
		binary.Write(h, binary.LittleEndian, d.Part)
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != pin.sum {
			t.Errorf("G%d BFS, %d parts: part map hashes to %s, pinned %s", pin.level, pin.nparts, got, pin.sum)
		}
	}
}

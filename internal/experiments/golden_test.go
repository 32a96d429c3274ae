package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// goldenFigureDigest is the SHA-256 of every figure's WriteTable, in
// IDs() order, at Reps 2 and Seed 1 with the default population sizes:
// the digest the repository benchmark's paper-figures workload checks
// each pass against. Go may fuse floating-point operations on some
// architectures, so the digest holds for the one it was recorded on.
const goldenFigureDigest = "d0c6f5c844db81aa1286942718570fc4733ebddf8a62630a091fa6307d2bb8d5"

// TestFiguresMatchGoldenDigest catches numeric drift in any figure: a
// change to an estimator, the RNG or the engine that moves a printed digit
// fails here. The pass runs serially and on several workers, which must
// print the same tables.
func TestFiguresMatchGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden figure digest recorded on amd64, not %s", runtime.GOARCH)
	}
	for _, workers := range []int{1, 4} {
		h := sha256.New()
		var buf bytes.Buffer
		for _, id := range IDs() {
			res, err := Run(id, Options{Reps: 2, Seed: 1, Workers: workers})
			if err != nil {
				t.Fatalf("figure %s: %v", id, err)
			}
			buf.Reset()
			if err := res.WriteTable(&buf); err != nil {
				t.Fatal(err)
			}
			h.Write(buf.Bytes())
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenFigureDigest {
			t.Errorf("Workers %d: figure tables digest %s, golden %s: a numeric change must be deliberate", workers, got, goldenFigureDigest)
		}
	}
}

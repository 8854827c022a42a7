package nn

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	_ "unsafe" // go:linkname

	"smol/internal/tensor"
)

// setF32Wide is tensor's unexported hook that turns the AVX-512 12x16
// kernel off (forcing the 4x16 YMM kernel onto every row quad) or back
// on; it is not part of tensor's API, so this test reaches it by name.
//
//go:linkname setF32Wide smol/internal/tensor.setF32Wide
func setF32Wide(enable bool) (previous bool)

var update = flag.Bool("update", false, "regenerate testdata/logits_digests.txt from the current compiled forward")

const goldenPath = "testdata/logits_digests.txt"

// goldenInputs is the (input size, batch) grid every variant runs. Square
// sizes from 8 to 128 put the stem, 3x3 stride 1, 3x3 stride 2, 1x1
// projection and residual-add convs on output planes from 1x1 to 128x128;
// the odd sizes and batch 3 make GEMM column counts (batch*outH*outW) that
// are not multiples of 16, and small planes make 16-column panels straddle
// output rows and samples.
var goldenInputs = []struct{ size, batch int }{
	{8, 1}, {8, 3}, {8, 8},
	{13, 1}, {13, 3},
	{20, 8},
	{32, 3}, {32, 8},
	{128, 1}, {128, 8},
}

// logitsDigest hashes the logits shape and the raw bits of every logit.
func logitsDigest(t *tensor.Tensor) string {
	hs := sha256.New()
	var word [8]byte
	for _, d := range t.Shape {
		binary.LittleEndian.PutUint64(word[:], uint64(d))
		hs.Write(word[:])
	}
	for _, v := range t.Data {
		binary.LittleEndian.PutUint32(word[:4], math.Float32bits(v))
		hs.Write(word[:4])
	}
	return hex.EncodeToString(hs.Sum(nil))
}

// goldenLogitsDigests runs every variant's seeded compiled plan, at f32
// and int8, over the input grid and returns one SHA-256 per logits
// tensor, keyed by case name. The f32 case runs on every kernel tier the
// host has — the ZMM kernel, the YMM kernel forced in its place, and the
// portable kernel — and the tiers must agree bit for bit before the
// shared digest is recorded.
func goldenLogitsDigests(t *testing.T) map[string]string {
	t.Helper()
	digests := map[string]string{}
	for vi, variant := range Variants() {
		_, plan, _ := compiledVariant(t, variant, int64(500+vi))
		rng := rand.New(rand.NewSource(int64(600 + vi)))
		var calib []*tensor.Tensor
		for i := 0; i < 2; i++ {
			x := tensor.New(4, 3, 16, 16)
			fillRand(rng, x)
			calib = append(calib, x)
		}
		cal, err := plan.Calibrate(calib)
		if err != nil {
			t.Fatal(err)
		}
		qp, err := Quantize(plan, cal)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range goldenInputs {
			x := tensor.New(in.batch, 3, in.size, in.size)
			fillRand(rand.New(rand.NewSource(int64(in.size*100+in.batch))), x)
			name := fmt.Sprintf("%s/%dx%d/b%d", variant, in.size, in.size, in.batch)

			f32 := logitsDigest(plan.Forward(x))
			if tensor.F32SIMDAvailable() {
				tier := tensor.F32KernelName()
				prevWide := setF32Wide(false)
				if tier == tensor.KernelAVX512 {
					if ymm := tensor.F32KernelName(); ymm != tensor.KernelAVX2 {
						t.Fatalf("setF32Wide(false) left the f32 tier at %q", ymm)
					}
					if d := logitsDigest(plan.Forward(x)); d != f32 {
						t.Errorf("%s: %s f32 digest %s, %s tier %s", name, tensor.KernelAVX2, d, tier, f32)
					}
				}
				setF32Wide(prevWide)
				prev := tensor.SetF32SIMD(false)
				portable := logitsDigest(plan.Forward(x))
				tensor.SetF32SIMD(prev)
				if portable != f32 {
					t.Errorf("%s: portable f32 digest %s, %s tier %s",
						name, portable, tier, f32)
				}
			}
			digests[name+"/f32"] = f32
			digests[name+"/int8"] = logitsDigest(qp.Forward(x))
		}
	}
	return digests
}

// TestGoldenLogitsDigests pins the compiled forward's logits bit for bit
// across changes. The equivalence tests compare the compiled plan against
// Model.Forward within a tolerance and the kernel tiers against each
// other, so only stored digests catch a reordering that moves every path
// alike. Run with -update to regenerate the digest file after a
// deliberate numerics change.
func TestGoldenLogitsDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse floating-point multiply-adds,
		// which moves rounding.
		t.Skipf("golden digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	if raceEnabled {
		// The forward is single-goroutine numerics; under the race
		// detector the 128x128 cases take minutes and check nothing new.
		t.Skip("logits digests are not checked under -race")
	}
	got := goldenLogitsDigests(t)
	if *update {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenPath)
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", goldenPath, sc.Text())
		}
		want[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for name, d := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: case no longer produced", name)
		} else if g != d {
			t.Errorf("%s: digest %s, want %s", name, g, d)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: case missing from %s (run with -update)", name, goldenPath)
		}
	}
}

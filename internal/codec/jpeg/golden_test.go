package jpeg

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"smol/internal/img"
)

var update = flag.Bool("update", false, "regenerate testdata/decode_digests.txt from the current decoder")

const goldenPath = "testdata/decode_digests.txt"

// goldenStream is one encoded input of the golden corpus.
type goldenStream struct {
	name string
	data []byte
}

// goldenCorpus encodes a seed-derived corpus in-process: both chroma
// layouts, even and odd dimensions, textured (long Huffman codes, dense AC)
// and smooth (short codes, sparse AC) content, each with and without
// restart intervals.
func goldenCorpus() []goldenStream {
	type shape struct {
		w, h    int
		sub     Subsampling
		smooth  bool
		quality int
	}
	shapes := []shape{
		{48, 32, Sub444, false, 95},
		{37, 29, Sub444, true, 75},
		{64, 48, Sub420, false, 90},
		{45, 51, Sub420, true, 60},
		{83, 67, Sub420, false, 50},
	}
	var out []goldenStream
	for i, s := range shapes {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		var m *img.Image
		kind := "noise"
		if s.smooth {
			m = smoothTestImage(rng, s.w, s.h)
			kind = "smooth"
		} else {
			m = randImage(rng, s.w, s.h)
		}
		for _, restart := range []int{0, 2} {
			name := fmt.Sprintf("%s-%dx%d-%s-q%d-dri%d", s.sub, s.w, s.h, kind, s.quality, restart)
			enc := Encode(m, EncodeOptions{Quality: s.quality, Subsampling: s.sub, RestartInterval: restart})
			out = append(out, goldenStream{name, enc})
		}
	}
	return out
}

// goldenDigests decodes every corpus stream at every scale, plainly, with
// an ROI and with an early-stop row, and returns one SHA-256 per decoded
// image, keyed by case name.
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	digests := map[string]string{}
	for _, s := range goldenCorpus() {
		w, h, err := DecodeHeader(s.data)
		if err != nil {
			t.Fatalf("%s: header: %v", s.name, err)
		}
		modes := []struct {
			name string
			opts DecodeOptions
		}{
			{"plain", DecodeOptions{}},
			{"roi", DecodeOptions{ROI: &img.Rect{X0: w / 4, Y0: h / 3, X1: 3 * w / 4, Y1: 2*h/3 + 1}}},
			{"early", DecodeOptions{EarlyStopRow: h/2 + 1}},
		}
		for _, scale := range SupportedScales() {
			for _, mode := range modes {
				opts := mode.opts
				opts.Scale = scale
				m, region, _, err := DecodeWithOptions(s.data, opts)
				if err != nil {
					t.Fatalf("%s %s 1/%d: %v", s.name, mode.name, scale, err)
				}
				digests[fmt.Sprintf("%s/%s/s%d", s.name, mode.name, scale)] = imageDigest(m, region)
			}
		}
	}
	return digests
}

// imageDigest hashes the decoded region placement, the image dimensions
// and every pixel byte.
func imageDigest(m *img.Image, region img.Rect) string {
	hs := sha256.New()
	var hdr [6 * 8]byte
	for i, v := range []int{region.X0, region.Y0, region.X1, region.Y1, m.W, m.H} {
		binary.LittleEndian.PutUint64(hdr[i*8:], uint64(v))
	}
	hs.Write(hdr[:])
	hs.Write(m.Pix[:m.W*m.H*3])
	return hex.EncodeToString(hs.Sum(nil))
}

// TestGoldenDecodeDigests pins the decoder's output bit for bit across
// changes: the equivalence tests compare fast paths against oracles that
// share the same kernels, so only stored digests catch a change that
// alters every path alike. Run with -update to regenerate the digest file
// after a deliberate numerics change.
func TestGoldenDecodeDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse floating-point multiply-adds in
		// the IDCT and color conversion, which moves rounding.
		t.Skipf("golden digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	got := goldenDigests(t)
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

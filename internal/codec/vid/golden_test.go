package vid

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
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

var update = flag.Bool("update", false, "regenerate testdata/decode_digests.txt from the current codec")

const goldenPath = "testdata/decode_digests.txt"

// goldenClip is one encoded stream of the golden corpus.
type goldenClip struct {
	name   string
	frames int
	data   []byte
}

// panFrames renders n frames of a window panning (dx, dy) pixels per frame
// across a seeded texture of random blobs. A pan makes the motion search
// pick non-zero vectors at every plane edge, so the displaced blocks of
// edge macroblocks read outside the plane and take the clamped path.
func panFrames(seed int64, w, h, n, dx, dy int) []*img.Image {
	rng := rand.New(rand.NewSource(seed))
	const margin = 64
	tw, th := w+2*margin, h+2*margin
	tex := make([][3]float64, tw*th)
	for i := range tex {
		tex[i] = [3]float64{90, 110, 130}
	}
	for b := 0; b < 24; b++ {
		cx, cy := rng.Float64()*float64(tw), rng.Float64()*float64(th)
		r := 3 + rng.Float64()*12
		col := [3]float64{rng.Float64()*255 - 128, rng.Float64()*255 - 128, rng.Float64()*255 - 128}
		for y := 0; y < th; y++ {
			for x := 0; x < tw; x++ {
				ddx, ddy := float64(x)-cx, float64(y)-cy
				if ddx*ddx+ddy*ddy < r*r {
					for c := range col {
						tex[y*tw+x][c] += col[c] / 2
					}
				}
			}
		}
	}
	// Fine noise gives the residuals dense high-frequency coefficients.
	for i := range tex {
		for c := 0; c < 3; c++ {
			tex[i][c] += float64(rng.Intn(17) - 8)
		}
	}
	frames := make([]*img.Image, n)
	for t := range frames {
		m := img.New(w, h)
		ox, oy := margin+t*dx, margin+t*dy
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				p := tex[(oy+y)*tw+ox+x]
				m.Set(x, y, img.ClampF(p[0]), img.ClampF(p[1]), img.ClampF(p[2]))
			}
		}
		frames[t] = m
	}
	return frames
}

// goldenCorpus encodes a seed-derived corpus in-process: dimensions that
// are and are not macroblock multiples, two qualities, two GOP sizes, and
// pans in both directions on both axes.
func goldenCorpus(t *testing.T) []goldenClip {
	t.Helper()
	shapes := []struct {
		w, h, n, dx, dy, quality, gop int
	}{
		{37, 29, 8, 3, 2, 95, 4},
		{50, 34, 8, -2, -3, 50, 4},
		{64, 48, 9, 5, -1, 95, 6},
		{45, 51, 9, -4, 3, 50, 6},
	}
	var out []goldenClip
	for i, s := range shapes {
		frames := panFrames(int64(200+i), s.w, s.h, s.n, s.dx, s.dy)
		data, err := Encode(frames, EncodeOptions{Quality: s.quality, GOP: s.gop})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%dx%d-pan%+d%+d-q%d-gop%d", s.w, s.h, s.dx, s.dy, s.quality, s.gop)
		out = append(out, goldenClip{name, s.n, data})
	}
	return out
}

// goldenDigests hashes, for every corpus clip, the encoded bitstream (the
// encoder reconstructs through the same IDCT and prediction as the
// decoder), every frame NextInto returns with deblocking on and off, and
// a backward and a forward SeekFrame sample.
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	digests := map[string]string{}
	for _, c := range goldenCorpus(t) {
		digests[c.name+"/encode"] = sha256Hex(c.data)
		for _, deblock := range []bool{true, false} {
			mode := fmt.Sprintf("%s/deblock-%v", c.name, deblock)
			opts := DecodeOptions{DisableDeblock: !deblock}
			dec, err := NewDecoder(c.data, opts)
			if err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
			var dst *img.Image
			for i := 0; ; i++ {
				m, err := dec.NextInto(dst)
				if errors.Is(err, ErrEndOfStream) {
					if i != c.frames {
						t.Fatalf("%s: %d frames, want %d", mode, i, c.frames)
					}
					break
				}
				if err != nil {
					t.Fatalf("%s frame %d: %v", mode, i, err)
				}
				digests[fmt.Sprintf("%s/frame%02d", mode, i)] = imageDigest(m)
				dst = m
			}
			for _, n := range []int{c.frames - 2, 1} {
				if err := dec.SeekFrame(n); err != nil {
					t.Fatalf("%s seek %d: %v", mode, n, err)
				}
				m, err := dec.NextInto(dst)
				if err != nil {
					t.Fatalf("%s seek %d: %v", mode, n, err)
				}
				digests[fmt.Sprintf("%s/seek%02d", mode, n)] = imageDigest(m)
			}
		}
	}
	return digests
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// imageDigest hashes the image dimensions and every pixel byte.
func imageDigest(m *img.Image) string {
	hs := sha256.New()
	fmt.Fprintf(hs, "%dx%d\n", m.W, m.H)
	hs.Write(m.Pix[:m.W*m.H*3])
	return hex.EncodeToString(hs.Sum(nil))
}

// TestGoldenDecodeDigests pins the encoder's bitstream and the decoder's
// frames bit for bit across changes: the equivalence tests compare fast
// paths against oracles that share the same kernels, so only stored
// digests catch a change that alters every path alike. Run with -update to
// regenerate the digest file after a deliberate numerics change.
func TestGoldenDecodeDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse floating-point multiply-adds in
		// the transforms and color conversion, which moves rounding.
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

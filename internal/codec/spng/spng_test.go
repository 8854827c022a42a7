package spng

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"smol/internal/img"
)

func gradientImage(w, h int) *img.Image {
	m := img.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			m.Set(x, y, uint8(x*3), uint8(y*5), uint8(x+y))
		}
	}
	return m
}

func noiseImage(rng *rand.Rand, w, h int) *img.Image {
	m := img.New(w, h)
	rng.Read(m.Pix)
	return m
}

func TestRoundTripLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range []*img.Image{
		gradientImage(64, 48),
		noiseImage(rng, 31, 17),
		gradientImage(1, 1),
		gradientImage(7, 128),
		// A flat image compresses close to DEFLATE's maximum ratio, which
		// DecodeRows's payload bound must still admit.
		img.New(512, 512),
	} {
		data := Encode(m, 0)
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%dx%d: %v", m.W, m.H, err)
		}
		if got.W != m.W || got.H != m.H || !bytes.Equal(got.Pix, m.Pix) {
			t.Fatalf("%dx%d: lossless round trip failed", m.W, m.H)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := noiseImage(rng, 1+rng.Intn(40), 1+rng.Intn(40))
		got, err := Decode(Encode(m, 0))
		return err == nil && bytes.Equal(got.Pix, m.Pix)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionOnSmoothContent(t *testing.T) {
	m := gradientImage(128, 128)
	data := Encode(m, 0)
	if len(data) >= len(m.Pix) {
		t.Fatalf("smooth content did not compress: %d >= %d", len(data), len(m.Pix))
	}
}

func TestDecodeHeader(t *testing.T) {
	m := gradientImage(77, 33)
	data := Encode(m, 0)
	w, h, err := DecodeHeader(data)
	if err != nil || w != 77 || h != 33 {
		t.Fatalf("header = %d,%d,%v", w, h, err)
	}
}

func TestDecodeRowsEarlyStop(t *testing.T) {
	m := gradientImage(40, 100)
	data := Encode(m, 0)
	part, stats, err := DecodeRows(data, 25)
	if err != nil {
		t.Fatal(err)
	}
	if part.H != 25 || part.W != 40 {
		t.Fatalf("dims %dx%d", part.W, part.H)
	}
	if stats.RowsDecoded != 25 || stats.RowsTotal != 100 {
		t.Fatalf("stats %+v", stats)
	}
	// Decoded rows must match the full decode exactly.
	full, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	want := full.Crop(img.Rect{X1: 40, Y1: 25})
	if !bytes.Equal(part.Pix, want.Pix) {
		t.Fatal("early-stop rows differ from full decode")
	}
}

func TestDecodeRowsBeyondHeight(t *testing.T) {
	m := gradientImage(10, 10)
	data := Encode(m, 0)
	got, stats, err := DecodeRows(data, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got.H != 10 || stats.RowsDecoded != 10 {
		t.Fatalf("H=%d rows=%d", got.H, stats.RowsDecoded)
	}
}

func TestDecodeErrors(t *testing.T) {
	m := gradientImage(16, 16)
	data := Encode(m, 0)
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("QOIF1234567890")},
		{"truncated header", data[:6]},
		{"truncated body", data[:len(data)/2]},
	}
	for _, c := range cases {
		if _, err := Decode(c.data); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestPaethMatchesSpec(t *testing.T) {
	// Exhaustive check of the predictor's tie-breaking rules against the
	// PNG specification's reference semantics.
	for a := 0; a < 256; a += 17 {
		for b := 0; b < 256; b += 17 {
			for c := 0; c < 256; c += 17 {
				got := paeth(byte(a), byte(b), byte(c))
				p := a + b - c
				pa, pb, pc := abs(p-a), abs(p-b), abs(p-c)
				var want byte
				switch {
				case pa <= pb && pa <= pc:
					want = byte(a)
				case pb <= pc:
					want = byte(b)
				default:
					want = byte(c)
				}
				if got != want {
					t.Fatalf("paeth(%d,%d,%d) = %d, want %d", a, b, c, got, want)
				}
			}
		}
	}
}

func TestFilterChoiceVaries(t *testing.T) {
	// Vertical gradient rows should prefer Up; the filter chooser must not
	// be stuck on a single filter for all content.
	m := img.New(32, 32)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			m.Set(x, y, uint8(y*8), uint8(y*8), uint8(y*8))
		}
	}
	vertical := Encode(m, 0)
	rng := rand.New(rand.NewSource(9))
	noisy := Encode(noiseImage(rng, 32, 32), 0)
	if len(vertical) >= len(noisy) {
		t.Fatalf("vertical gradient (%d bytes) should compress far better than noise (%d bytes)",
			len(vertical), len(noisy))
	}
}

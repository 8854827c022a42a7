package jpeg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"smol/internal/analysis/alloctest"
	"smol/internal/img"
)

// smoothTestImage renders a band-limited image (gradients plus a few low
// frequency waves) whose energy sits in the frequencies scaled decoding
// keeps, so full-decode-then-downsample is a meaningful reference.
func smoothTestImage(rng *rand.Rand, w, h int) *img.Image {
	m := img.New(w, h)
	fx := 1 + rng.Intn(3)
	fy := 1 + rng.Intn(3)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r := 40 + 170*x/w
			g := 40 + 170*y/h
			b := 128 + int(90*cosApprox(float64(fx*x)/float64(w))*cosApprox(float64(fy*y)/float64(h)))
			m.Set(x, y, clamp8(r), clamp8(g), clamp8(b))
		}
	}
	return m
}

func clamp8(v int) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// cosApprox is cos(2*pi*t) via a coarse table-free polynomial — precision
// is irrelevant, it only shapes low-frequency content.
func cosApprox(t float64) float64 {
	t -= float64(int(t))
	x := 2*t - 1 // [-1, 1]
	return 2*x*x - 1
}

type scaleCase struct {
	name    string
	w, h    int
	sub     Subsampling
	restart int
	// tol is the accepted mean abs diff vs full decode + box downsample.
	// 4:2:0 tolerates more: the reference keeps per-quadrant chroma
	// averages while scaled decode shares one chroma sample per reduced
	// block, an approximation inherent to subsampled scaled decoding.
	tol float64
}

func scaleCases() []scaleCase {
	return []scaleCase{
		{"444-64x48", 64, 48, Sub444, 0, 5},
		{"420-64x48", 64, 48, Sub420, 0, 13},
		{"444-odd-101x77", 101, 77, Sub444, 0, 5},
		{"420-odd-101x77", 101, 77, Sub420, 0, 13},
		{"444-restart-96x64", 96, 64, Sub444, 4, 5},
		{"420-restart-96x64", 96, 64, Sub420, 3, 13},
	}
}

// TestScaledDecodeMatchesBoxDownsample: decoding at 1/2, 1/4 and 1/8 must
// approximate full decode + box downsample — the scaled IDCT basis is the
// box response of the full reconstruction truncated to the surviving
// frequencies — across both chroma subsampling modes, odd dimensions and
// restart-marker streams.
func TestScaledDecodeMatchesBoxDownsample(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range scaleCases() {
		t.Run(tc.name, func(t *testing.T) {
			m := smoothTestImage(rng, tc.w, tc.h)
			enc := Encode(m, EncodeOptions{Quality: 92, Subsampling: tc.sub, RestartInterval: tc.restart})
			full, err := Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			for _, scale := range []int{2, 4, 8} {
				scaled, _, _, err := DecodeWithOptions(enc, DecodeOptions{Scale: scale})
				if err != nil {
					t.Fatalf("scale %d: %v", scale, err)
				}
				wantW, wantH := img.ScaledDims(tc.w, tc.h, scale)
				if scaled.W != wantW || scaled.H != wantH {
					t.Fatalf("scale %d: got %dx%d, want %dx%d", scale, scaled.W, scaled.H, wantW, wantH)
				}
				want := full.DownsampleBox(scale)
				if d := img.MeanAbsDiff(scaled, want); d > tc.tol {
					t.Errorf("scale %d: mean abs diff %.2f vs full+box-downsample", scale, d)
				}
			}
		})
	}
}

// TestScaledDecodeFlatExact: a flat-color image is all DC, which every
// reduced IDCT reconstructs identically to the full one, so scaled decode
// must match full decode + downsample exactly.
func TestScaledDecodeFlatExact(t *testing.T) {
	for _, sub := range []Subsampling{Sub444, Sub420} {
		m := img.New(48, 32)
		for i := range m.Pix {
			m.Pix[i] = []uint8{180, 90, 60}[i%3]
		}
		enc := Encode(m, EncodeOptions{Quality: 90, Subsampling: sub})
		full, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range []int{2, 4, 8} {
			scaled, _, _, err := DecodeWithOptions(enc, DecodeOptions{Scale: scale})
			if err != nil {
				t.Fatal(err)
			}
			want := full.DownsampleBox(scale)
			if d := img.MeanAbsDiff(scaled, want); d != 0 {
				t.Errorf("sub %v scale %d: flat image diff %v, want exact", sub, scale, d)
			}
		}
	}
}

// TestScaledDecodeSkipsIDCTWork asserts via DecodeStats that scaled
// decoding performs genuinely less reconstruction work: entropy decoding is
// unchanged (every MCU still parsed) while IDCT sample production and color
// conversion shrink by ~scale^2.
func TestScaledDecodeSkipsIDCTWork(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := smoothTestImage(rng, 128, 96)
	enc := Encode(m, EncodeOptions{Quality: 90, Subsampling: Sub420})
	_, _, fullStats, err := DecodeWithOptions(enc, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fullStats.IDCTSamples != fullStats.BlocksIDCT*64 {
		t.Fatalf("full decode: %d IDCT samples for %d blocks", fullStats.IDCTSamples, fullStats.BlocksIDCT)
	}
	for _, scale := range []int{2, 4, 8} {
		_, _, st, err := DecodeWithOptions(enc, DecodeOptions{Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		if st.MCUsEntropyDecoded != fullStats.MCUsEntropyDecoded ||
			st.EntropyBytesRead != fullStats.EntropyBytesRead {
			t.Errorf("scale %d: entropy work changed (%d MCUs, %d bytes)", scale,
				st.MCUsEntropyDecoded, st.EntropyBytesRead)
		}
		sub := 8 / scale
		if st.IDCTSamples != st.BlocksIDCT*sub*sub {
			t.Errorf("scale %d: %d IDCT samples for %d blocks, want %d per block",
				scale, st.IDCTSamples, st.BlocksIDCT, sub*sub)
		}
		if st.IDCTSamples*scale*scale != fullStats.IDCTSamples {
			t.Errorf("scale %d: IDCT samples %d not 1/%d of full %d",
				scale, st.IDCTSamples, scale*scale, fullStats.IDCTSamples)
		}
		ow, oh := img.ScaledDims(128, 96, scale)
		if st.PixelsColorConverted != ow*oh {
			t.Errorf("scale %d: color converted %d pixels, want %d", scale, st.PixelsColorConverted, ow*oh)
		}
	}
}

// TestScaledDecodeComposesWithROI: Scale composes with the ROI machinery —
// the region stays in full-resolution coordinates, reconstruction happens
// on the scaled grid, and the result matches cropping the full decode to
// the region then box-downsampling.
func TestScaledDecodeComposesWithROI(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range scaleCases() {
		t.Run(tc.name, func(t *testing.T) {
			m := smoothTestImage(rng, tc.w, tc.h)
			enc := Encode(m, EncodeOptions{Quality: 92, Subsampling: tc.sub, RestartInterval: tc.restart})
			full, err := Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			roi := img.Rect{X0: tc.w / 4, Y0: tc.h / 4, X1: tc.w * 3 / 4, Y1: tc.h * 3 / 4}
			for _, scale := range []int{2, 4, 8} {
				part, region, st, err := DecodeWithOptions(enc, DecodeOptions{ROI: &roi, Scale: scale})
				if err != nil {
					t.Fatalf("scale %d: %v", scale, err)
				}
				wantW, wantH := img.ScaledDims(region.W(), region.H(), scale)
				if part.W != wantW || part.H != wantH {
					t.Fatalf("scale %d: got %dx%d, want %dx%d (region %+v)",
						scale, part.W, part.H, wantW, wantH, region)
				}
				want := full.Crop(region).DownsampleBox(scale)
				if d := img.MeanAbsDiff(part, want); d > tc.tol {
					t.Errorf("scale %d: mean abs diff %.2f vs cropped full decode", scale, d)
				}
				if st.BlocksIDCT >= st.BlocksTotal {
					t.Errorf("scale %d: ROI decode reconstructed every block", scale)
				}
			}
		})
	}
}

// TestDecoderSingleParse: the reusable Decoder parses headers once and then
// serves multiple Decode calls with different options, matching the
// one-shot API exactly.
func TestDecoderSingleParse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := smoothTestImage(rng, 80, 56)
	enc := Encode(m, EncodeOptions{Quality: 90, Subsampling: Sub420})

	var dec Decoder
	if _, _, _, err := dec.Decode(DecodeOptions{}); err == nil {
		t.Fatal("Decode before Parse should fail")
	}
	w, h, err := dec.Parse(enc)
	if err != nil {
		t.Fatal(err)
	}
	if w != 80 || h != 56 {
		t.Fatalf("parsed %dx%d", w, h)
	}
	if got := dec.MCUSize(); got != 16 {
		t.Fatalf("4:2:0 MCU size %d, want 16", got)
	}
	for _, opts := range []DecodeOptions{
		{},
		{Scale: 4},
		{ROI: &img.Rect{X0: 16, Y0: 16, X1: 64, Y1: 48}},
		{ROI: &img.Rect{X0: 16, Y0: 16, X1: 64, Y1: 48}, Scale: 2},
	} {
		want, wantRegion, wantStats, err := DecodeWithOptions(enc, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, region, stats, err := dec.Decode(opts)
		if err != nil {
			t.Fatal(err)
		}
		if region != wantRegion {
			t.Fatalf("opts %+v: region %+v, want %+v", opts, region, wantRegion)
		}
		if d := img.MeanAbsDiff(got, want); d != 0 {
			t.Fatalf("opts %+v: pixels diverge from one-shot decode (diff %v)", opts, d)
		}
		if *stats != *wantStats {
			t.Fatalf("opts %+v: stats %+v, want %+v", opts, stats, wantStats)
		}
	}
	// A 4:4:4 stream reports the smaller MCU grid after re-Parse.
	enc444 := Encode(m, EncodeOptions{Quality: 90, Subsampling: Sub444})
	if _, _, err := dec.Parse(enc444); err != nil {
		t.Fatal(err)
	}
	if got := dec.MCUSize(); got != 8 {
		t.Fatalf("4:4:4 MCU size %d, want 8", got)
	}
}

// TestDecoderWarmPathAllocates0: a warm Decoder decoding into a
// caller-supplied Dst image must not allocate: Huffman tables, planar
// scratch and the output buffer are all reused across frames. This is the
// allocs/op regression guard for the serving ingest path.
func TestDecoderWarmPathAllocates0(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := smoothTestImage(rng, 96, 64)
	for _, scale := range []int{1, 4} {
		enc := Encode(m, EncodeOptions{Quality: 90, Subsampling: Sub420})
		var dec Decoder
		dst := &img.Image{}
		warm := func() {
			if _, _, err := dec.Parse(enc); err != nil {
				t.Fatal(err)
			}
			out, _, _, err := dec.Decode(DecodeOptions{Scale: scale, Dst: dst})
			if err != nil {
				t.Fatal(err)
			}
			dst = out
		}
		warm() // size the scratch
		alloctest.Run(t, "smol/internal/codec/jpeg.Decoder.Decode", 0, warm,
			"smol/internal/codec/jpeg.Decoder.Parse")
	}
}

// TestScaledDecodeInvalidScale rejects unsupported scales.
func TestScaledDecodeInvalidScale(t *testing.T) {
	m := img.New(16, 16)
	enc := Encode(m, EncodeOptions{})
	for _, scale := range []int{3, 5, 16, -1} {
		if _, _, _, err := DecodeWithOptions(enc, DecodeOptions{Scale: scale}); err == nil {
			t.Errorf("scale %d accepted", scale)
		}
	}
}

// TestScaledDecodePSNRImprovesWithResolution: fidelity against the
// bilinear-resized original should degrade monotonically-ish with scale but
// stay usable at 1/8 — a coarse guard that reduced reconstruction is not
// garbage.
func TestScaledDecodePSNRImprovesWithResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := smoothTestImage(rng, 160, 120)
	enc := Encode(m, EncodeOptions{Quality: 92})
	full, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []int{2, 4, 8} {
		scaled, _, _, err := DecodeWithOptions(enc, DecodeOptions{Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		ref := full.DownsampleBox(scale)
		if d := img.MeanAbsDiff(scaled, ref); d > 6 {
			t.Errorf("scale %d: diff %.2f from reference downsample", scale, d)
		}
	}
}

var sinkImage *img.Image

// photoTestImage has the statistics of the serving benchmark's HD stills:
// a noisy gray background with a vertical gradient and a softly striped
// colored disc, rendered as an h/2 square and upscaled bilinearly to
// w x h. Its AC content is dense enough that entropy decoding dominates a
// 1/8 decode.
func photoTestImage(rng *rand.Rand, w, h int) *img.Image {
	hw, hh := h/2, h/2
	m := img.New(hw, hh)
	base := 40 + rng.Intn(40)
	for y := 0; y < hh; y++ {
		for x := 0; x < hw; x++ {
			v := uint8(base + y*40/hh + rng.Intn(21))
			m.Set(x, y, v, v, v)
		}
	}
	cx, cy := hw/2+rng.Intn(hw/4)-hw/8, hh/2+rng.Intn(hh/4)-hh/8
	size := hh * (36 + rng.Intn(8)) / 100
	freq := 0.05 + 0.1*rng.Float64()
	for y := max(cy-size, 0); y < min(cy+size, hh); y++ {
		for x := max(cx-size, 0); x < min(cx+size, hw); x++ {
			dx, dy := x-cx, y-cy
			if dx*dx+dy*dy >= size*size {
				continue
			}
			shade := 0.85 + 0.15*math.Sin(float64(dx+dy)*freq*math.Pi)
			m.Set(x, y, img.ClampF(200*shade), img.ClampF(150*shade), img.ClampF(70*shade))
		}
	}
	return m.ResizeBilinear(w, h)
}

// BenchmarkDecodeScaledHD times a warm Decoder on 1920x1080 q90 4:2:0
// streams at every scale: "smooth" (sparse AC, about 97 KB) and "photo"
// (photoTestImage, the serving benchmark's HD still statistics).
func BenchmarkDecodeScaledHD(b *testing.B) {
	images := []struct {
		name string
		m    *img.Image
	}{
		{"smooth", smoothTestImage(rand.New(rand.NewSource(7)), 1920, 1080)},
		{"photo", photoTestImage(rand.New(rand.NewSource(7)), 1920, 1080)},
	}
	for _, im := range images {
		enc := Encode(im.m, EncodeOptions{Quality: 90, Subsampling: Sub420})
		for _, scale := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/scale%d", im.name, scale), func(b *testing.B) {
				var dec Decoder
				dst := &img.Image{}
				b.SetBytes(int64(len(enc)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := dec.Parse(enc); err != nil {
						b.Fatal(err)
					}
					out, _, _, err := dec.Decode(DecodeOptions{Scale: scale, Dst: dst})
					if err != nil {
						b.Fatal(err)
					}
					dst = out
				}
				sinkImage = dst
			})
		}
	}
}

// stripSegments removes all segments with the given marker from a JPEG
// stream (test helper for malformed-stream handling).
func stripSegments(t *testing.T, data []byte, marker byte) []byte {
	t.Helper()
	out := append([]byte(nil), data[:2]...) // SOI
	p := 2
	for p+4 <= len(data) {
		if data[p] != 0xff {
			t.Fatal("bad marker sync")
		}
		m := data[p+1]
		n := int(data[p+2])<<8 | int(data[p+3])
		seg := data[p : p+2+n]
		p += 2 + n
		if m != marker {
			out = append(out, seg...)
		}
		if m == 0xda { // SOS: rest is entropy data
			out = append(out, data[p:]...)
			break
		}
	}
	return out
}

// TestWarmDecoderRejectsMissingDQT: a warm Decoder must not silently reuse
// the previous stream's quantization tables when a malformed stream omits
// its DQT segment — both cold and warm decoders must fail identically.
func TestWarmDecoderRejectsMissingDQT(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := smoothTestImage(rng, 48, 32)
	good := Encode(m, EncodeOptions{Quality: 90})
	noDQT := stripSegments(t, good, 0xdb)
	if _, err := Decode(noDQT); err == nil {
		t.Fatal("cold decode of DQT-less stream should fail")
	}
	var dec Decoder
	if _, _, err := dec.Parse(good); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := dec.Decode(DecodeOptions{}); err != nil {
		t.Fatal(err)
	}
	// The warm decoder still holds the good stream's quant tables; they
	// must not leak into the next stream.
	if _, _, err := dec.Parse(noDQT); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := dec.Decode(DecodeOptions{}); err == nil {
		t.Fatal("warm decode of DQT-less stream should fail, not reuse stale quant tables")
	}
}

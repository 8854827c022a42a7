package jpeg

import (
	"math/rand"
	"testing"

	"smol/internal/img"
)

// truncationInput is the valid stream whose every prefix
// TestTruncationNeverPanics decodes.
func truncationInput() []byte {
	rng := rand.New(rand.NewSource(20))
	m := randImage(rng, 40, 32)
	return Encode(m, EncodeOptions{Quality: 80, RestartInterval: 4})
}

// bitFlipInputs returns the single-byte corruptions of one valid stream
// that TestBitFlipsNeverPanic decodes.
func bitFlipInputs() [][]byte {
	rng := rand.New(rand.NewSource(21))
	m := randImage(rng, 32, 24)
	enc := Encode(m, EncodeOptions{Quality: 70})
	out := make([][]byte, 300)
	for trial := range out {
		corrupted := append([]byte(nil), enc...)
		corrupted[rng.Intn(len(corrupted))] ^= byte(1 + rng.Intn(255))
		out[trial] = corrupted
	}
	return out
}

// TestTruncationNeverPanics: decoding every prefix of a valid stream must
// return an error or a valid image, never panic or loop — the robustness a
// runtime engine needs when fed damaged inputs.
func TestTruncationNeverPanics(t *testing.T) {
	enc := truncationInput()
	for n := 0; n < len(enc); n++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("prefix %d/%d bytes: panic: %v", n, len(enc), r)
				}
			}()
			dec, err := Decode(enc[:n])
			if err == nil && (dec == nil || dec.W != 40 || dec.H != 32) {
				t.Fatalf("prefix %d: nil error with bad image", n)
			}
		}()
	}
}

// TestBitFlipsNeverPanic: single-byte corruptions anywhere in the stream
// must never panic the decoder.
func TestBitFlipsNeverPanic(t *testing.T) {
	for trial, corrupted := range bitFlipInputs() {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic: %v", trial, r)
				}
			}()
			Decode(corrupted) //nolint:errcheck // any outcome but a panic is acceptable
		}()
	}
}

// fuzzMaxPixels bounds the images FuzzDecode reconstructs, so a mutated
// SOF cannot make one execution allocate hundreds of megabytes.
const fuzzMaxPixels = 1 << 18

// FuzzDecode feeds arbitrary bytes through Parse and a warm Decode at every
// supported scale, plainly, with an ROI and with an early-stop row. Any
// outcome but a panic or a wrongly sized image is acceptable. Every input
// that parses is also entropy-decoded block by block through the fused and
// skip-table path and the per-symbol oracle, which must agree (see
// compareBlockDecode). The seed corpus is the truncation and bit-flip
// inputs above, so plain go test runs it; go test -fuzz=FuzzDecode
// explores from there.
func FuzzDecode(f *testing.F) {
	enc := truncationInput()
	for n := 0; n <= len(enc); n += 16 {
		f.Add(enc[:n])
	}
	f.Add(enc)
	for _, corrupted := range bitFlipInputs()[:64] {
		f.Add(corrupted)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec Decoder
		w, h, err := dec.Parse(data)
		if err != nil || w*h > fuzzMaxPixels {
			return
		}
		compareParsedBlocks(t, "fuzz input", data)
		roi := img.Rect{X0: w / 4, Y0: h / 3, X1: w - w/4, Y1: h - h/4}
		dst := &img.Image{}
		for _, scale := range SupportedScales() {
			for _, opts := range []DecodeOptions{
				{Scale: scale},
				{Scale: scale, ROI: &roi},
				{Scale: scale, EarlyStopRow: h / 2},
			} {
				opts.Dst = dst
				m, region, _, err := dec.Decode(opts)
				if err != nil {
					continue
				}
				if ow, oh := img.ScaledDims(region.W(), region.H(), scale); m.W != ow || m.H != oh {
					t.Fatalf("scale %d %+v: image %dx%d, region %v wants %dx%d", scale, opts, m.W, m.H, region, ow, oh)
				}
				dst = m
			}
		}
	})
}

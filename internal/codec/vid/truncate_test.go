package vid

import (
	"math/rand"
	"testing"

	"smol/internal/img"
)

// truncationFrames is the frame count of truncationInput.
const truncationFrames = 8

// truncationInput is the valid stream whose every prefix
// TestTruncationNeverPanics decodes.
func truncationInput(t testing.TB) []byte {
	t.Helper()
	enc, err := Encode(syntheticVideo(32, 24, truncationFrames), EncodeOptions{Quality: 70, GOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// corruptionInputs returns the single-byte corruptions of one valid stream
// that TestByteCorruptionNeverPanics decodes.
func corruptionInputs(t testing.TB) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(24))
	enc, err := Encode(syntheticVideo(24, 24, 6), EncodeOptions{Quality: 60, GOP: 3})
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, 200)
	for trial := range out {
		corrupted := append([]byte(nil), enc...)
		corrupted[rng.Intn(len(corrupted))] ^= byte(1 + rng.Intn(255))
		out[trial] = corrupted
	}
	return out
}

// TestTruncationNeverPanics: every prefix of a valid video stream must
// yield an error or a (possibly shorter) valid frame sequence — never a
// panic. Streaming analytics engines routinely see cut-off files.
func TestTruncationNeverPanics(t *testing.T) {
	enc := truncationInput(t)
	stride := 1
	if len(enc) > 4096 {
		stride = len(enc) / 4096
	}
	for n := 0; n < len(enc); n += stride {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("prefix %d/%d: panic: %v", n, len(enc), r)
				}
			}()
			dec, err := DecodeAll(enc[:n], DecodeOptions{})
			if err == nil && len(dec) > truncationFrames {
				t.Fatalf("prefix %d: decoded %d frames from a %d-frame stream", n, len(dec), truncationFrames)
			}
		}()
	}
}

// TestByteCorruptionNeverPanics: single-byte corruption anywhere in the
// stream must never panic the decoder, with and without the deblocking
// filter.
func TestByteCorruptionNeverPanics(t *testing.T) {
	for trial, corrupted := range corruptionInputs(t) {
		opts := DecodeOptions{DisableDeblock: trial%2 == 0}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic: %v", trial, r)
				}
			}()
			DecodeAll(corrupted, opts) //nolint:errcheck
		}()
	}
}

// fuzzMaxPixels bounds the frames FuzzDecode reconstructs, so a mutated
// header cannot make one execution allocate and decode megapixel frames.
const fuzzMaxPixels = 1 << 16

// FuzzDecode feeds arbitrary bytes through NewDecoder, NextInto to the end
// of the stream and one SeekFrame, with and without deblocking. Motion
// vectors are payload bytes, so prediction must stay inside the reference
// planes whatever they say. Any outcome but a panic, a wrongly sized frame
// or more frames than the header declares is acceptable. Request bytes are
// indexed with IndexGOPs before any GOP fan-out, so a table it returns must
// tile [0, Frames) with non-empty, contiguous groups that SetGOPIndex
// accepts. The seed corpus
// is the truncation and corruption inputs above, so plain go test runs
// it; go test -fuzz=FuzzDecode explores from there.
func FuzzDecode(f *testing.F) {
	enc := truncationInput(f)
	for n := 0; n <= len(enc); n += 16 {
		f.Add(enc[:n])
	}
	f.Add(enc)
	for _, corrupted := range corruptionInputs(f)[:64] {
		f.Add(corrupted)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := Probe(data)
		if err != nil || info.W*info.H > fuzzMaxPixels {
			return
		}
		if index, err := IndexGOPs(data); err == nil {
			next := 0
			for g, e := range index {
				if e.FirstFrame != next || e.Frames < 1 {
					t.Fatalf("GOP %d covers [%d,%d), want a non-empty group starting at %d", g, e.FirstFrame, e.FirstFrame+e.Frames, next)
				}
				next += e.Frames
			}
			if next != info.Frames {
				t.Fatalf("GOP index covers %d frames, header declares %d", next, info.Frames)
			}
			dec, err := NewDecoder(data, DecodeOptions{})
			if err != nil {
				t.Fatalf("Probe accepted a header NewDecoder rejects: %v", err)
			}
			if err := dec.SetGOPIndex(index); err != nil {
				t.Fatalf("SetGOPIndex rejects the IndexGOPs table: %v", err)
			}
		}
		for _, deblock := range []bool{true, false} {
			dec, err := NewDecoder(data, DecodeOptions{DisableDeblock: !deblock})
			if err != nil {
				t.Fatalf("Probe accepted a header NewDecoder rejects: %v", err)
			}
			var dst *img.Image
			frames := 0
			for ; ; frames++ {
				m, err := dec.NextInto(dst)
				if err != nil {
					break
				}
				if m.W != info.W || m.H != info.H {
					t.Fatalf("deblock=%v frame %d: %dx%d, header says %dx%d", deblock, frames, m.W, m.H, info.W, info.H)
				}
				dst = m
			}
			if frames > info.Frames {
				t.Fatalf("deblock=%v: decoded %d frames, header declares %d", deblock, frames, info.Frames)
			}
			if info.Frames == 0 || dec.SeekFrame(info.Frames/2) != nil {
				continue
			}
			if m, err := dec.NextInto(dst); err == nil && (m.W != info.W || m.H != info.H) {
				t.Fatalf("deblock=%v seek: %dx%d, header says %dx%d", deblock, m.W, m.H, info.W, info.H)
			}
		}
	})
}

package jpeg

import (
	"fmt"
	"testing"

	"smol/internal/img"
)

func TestRestartIntervalRoundTrip(t *testing.T) {
	m := testImage(128, 96, 21)
	for _, sub := range []Subsampling{Sub444, Sub420} {
		for _, interval := range []int{1, 4, 7, 16} {
			plain := Encode(m, EncodeOptions{Quality: 90, Subsampling: sub})
			withRST := Encode(m, EncodeOptions{Quality: 90, Subsampling: sub, RestartInterval: interval})
			if len(withRST) <= len(plain) {
				t.Fatalf("%v/%d: restart markers should add bytes (%d vs %d)",
					sub, interval, len(withRST), len(plain))
			}
			decPlain, err := Decode(plain)
			if err != nil {
				t.Fatal(err)
			}
			decRST, err := Decode(withRST)
			if err != nil {
				t.Fatalf("%v/%d: %v", sub, interval, err)
			}
			// Restart markers change the entropy framing, not the pixels.
			if d := img.MeanAbsDiff(decPlain, decRST); d != 0 {
				t.Fatalf("%v/%d: restart framing changed pixels (MAD=%v)", sub, interval, d)
			}
		}
	}
}

func TestRestartROISkipsEntropyDecoding(t *testing.T) {
	m := testImage(256, 256, 22)
	// One restart segment per MCU row (256/8 = 32 MCUs per row).
	data := Encode(m, EncodeOptions{Quality: 85, RestartInterval: 32})
	full, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	roi := img.Rect{X0: 96, Y0: 160, X1: 160, Y1: 224}
	part, region, stats, err := DecodeWithOptions(data, DecodeOptions{ROI: &roi})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MCUsSkippedEntropy == 0 {
		t.Fatal("ROI below segment boundaries should skip whole restart segments")
	}
	if stats.EntropyBytesSkipped == 0 {
		t.Fatal("skipping segments should pass over compressed bytes")
	}
	// Rows above the ROI were skipped: entropy-decoded MCUs cover only
	// [firstSegment, lastNeededRow].
	if stats.MCUsEntropyDecoded+stats.MCUsSkippedEntropy > stats.MCUsTotal {
		t.Fatalf("MCU accounting broken: %+v", stats)
	}
	wantSkipped := (roi.Y0 / 8) * 32 // all full rows above the ROI
	if stats.MCUsSkippedEntropy != wantSkipped {
		t.Fatalf("skipped %d MCUs, want %d", stats.MCUsSkippedEntropy, wantSkipped)
	}
	// Pixels must still match the full decode exactly.
	want := full.Crop(region)
	if d := img.MeanAbsDiff(part, want); d != 0 {
		t.Fatalf("restart-skip ROI decode differs from full decode (MAD=%v)", d)
	}
}

func TestRestartROICheaperThanPlainROI(t *testing.T) {
	m := testImage(256, 256, 23)
	plain := Encode(m, EncodeOptions{Quality: 85})
	withRST := Encode(m, EncodeOptions{Quality: 85, RestartInterval: 32})
	roi := img.Rect{X0: 96, Y0: 192, X1: 160, Y1: 256}
	_, _, plainStats, err := DecodeWithOptions(plain, DecodeOptions{ROI: &roi})
	if err != nil {
		t.Fatal(err)
	}
	_, _, rstStats, err := DecodeWithOptions(withRST, DecodeOptions{ROI: &roi})
	if err != nil {
		t.Fatal(err)
	}
	// Without restarts, every MCU above the ROI is entropy-decoded; with
	// them, most are skipped.
	if rstStats.MCUsEntropyDecoded >= plainStats.MCUsEntropyDecoded {
		t.Fatalf("restart ROI decoded %d MCUs, plain ROI %d",
			rstStats.MCUsEntropyDecoded, plainStats.MCUsEntropyDecoded)
	}
	if rstStats.EntropyBytesRead >= plainStats.EntropyBytesRead {
		t.Fatalf("restart ROI read %d entropy bytes, plain ROI %d",
			rstStats.EntropyBytesRead, plainStats.EntropyBytesRead)
	}
}

func TestRestartCorruptMarkerDetected(t *testing.T) {
	m := testImage(64, 64, 24)
	data := Encode(m, EncodeOptions{Quality: 85, RestartInterval: 4})
	// Find the first restart marker in the scan and corrupt it.
	corrupted := append([]byte(nil), data...)
	found := false
	for i := len(corrupted) / 3; i+1 < len(corrupted); i++ {
		if corrupted[i] == 0xff && isRST(corrupted[i+1]) {
			corrupted[i+1] = 0xc7 // not a restart marker
			found = true
			break
		}
	}
	if !found {
		t.Skip("no restart marker found to corrupt")
	}
	if _, err := Decode(corrupted); err == nil {
		t.Fatal("corrupt restart marker should fail decoding")
	}
}

// TestRestartMarkerExpectedAfterConsumedBytes: a byte spliced in before a
// restart marker is data no MCU consumes, so every scale must report the
// marker missing at that byte's offset, whether or not the bit reader had
// already read the byte ahead.
func TestRestartMarkerExpectedAfterConsumedBytes(t *testing.T) {
	m := testImage(128, 96, 23)
	for _, sub := range []Subsampling{Sub444, Sub420} {
		for _, interval := range []int{1, 3} {
			enc := Encode(m, EncodeOptions{Quality: 90, Subsampling: sub, RestartInterval: interval})
			var dec Decoder
			if _, _, err := dec.Parse(enc); err != nil {
				t.Fatal(err)
			}
			scan := dec.d.scanStart
			for rst := scan; rst+1 < len(enc); rst++ {
				if enc[rst] != 0xff || !isRST(enc[rst+1]) {
					continue
				}
				// Splice the extra byte before this marker.
				data := append(append(append([]byte(nil), enc[:rst]...), 0x5a), enc[rst:]...)
				want := fmt.Sprintf("jpeg: expected restart marker at offset %d, found 5aff", rst-scan)
				for _, scale := range SupportedScales() {
					if _, _, err := dec.Parse(data); err != nil {
						t.Fatal(err)
					}
					_, _, _, err := dec.Decode(DecodeOptions{Scale: scale})
					if err == nil || err.Error() != want {
						t.Fatalf("%v/%d scale %d, byte before offset %d: error %v, want %q",
							sub, interval, scale, rst-scan, err, want)
					}
				}
				rst++
			}
		}
	}
}

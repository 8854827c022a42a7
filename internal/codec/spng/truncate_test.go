package spng

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"smol/internal/img"
)

func fuzzImage(rng *rand.Rand, w, h int) *img.Image {
	m := img.New(w, h)
	for i := range m.Pix {
		m.Pix[i] = byte(rng.Intn(256))
	}
	return m
}

// truncationInputs returns the valid plain and progressive streams whose
// every prefix TestTruncationNeverPanics decodes.
func truncationInputs(t testing.TB) (flat, prog []byte) {
	rng := rand.New(rand.NewSource(22))
	m := fuzzImage(rng, 33, 27)
	prog, err := EncodeProgressive(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	return Encode(m, 0), prog
}

// bitFlipInputs returns the single-byte corruptions of one valid stream
// that TestByteCorruptionNeverPanics decodes.
func bitFlipInputs() [][]byte {
	rng := rand.New(rand.NewSource(23))
	m := fuzzImage(rng, 24, 24)
	enc := Encode(m, 0)
	out := make([][]byte, 300)
	for trial := range out {
		corrupted := append([]byte(nil), enc...)
		corrupted[rng.Intn(len(corrupted))] ^= byte(1 + rng.Intn(255))
		out[trial] = corrupted
	}
	return out
}

// TestTruncationNeverPanics: every prefix of a valid stream must yield an
// error or a valid image from the plain, row-streaming, and progressive
// decoders — never a panic.
func TestTruncationNeverPanics(t *testing.T) {
	flat, prog := truncationInputs(t)
	check := func(name string, f func()) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: panic: %v", name, r)
			}
		}()
		f()
	}
	for n := 0; n < len(flat); n++ {
		p := flat[:n]
		check("decode", func() { Decode(p) })       //nolint:errcheck
		check("rows", func() { DecodeRows(p, 10) }) //nolint:errcheck
	}
	for n := 0; n < len(prog); n++ {
		p := prog[:n]
		check("progressive", func() { DecodeProgressive(p, 8, 8) }) //nolint:errcheck
	}
}

// TestByteCorruptionNeverPanics: arbitrary single-byte corruption must
// never panic the DEFLATE-backed decoder.
func TestByteCorruptionNeverPanics(t *testing.T) {
	for trial, corrupted := range bitFlipInputs() {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic: %v", trial, r)
				}
			}()
			Decode(corrupted) //nolint:errcheck
		}()
	}
}

// headerOnly is an spng stream whose header declares w x h pixels and whose
// payload is an empty DEFLATE stream.
func headerOnly(t *testing.T, w, h int) []byte {
	var buf bytes.Buffer
	buf.Write(magic[:])
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(w))
	binary.BigEndian.PutUint32(hdr[4:], uint32(h))
	buf.Write(hdr[:])
	fw, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOversizedHeaderRefusedBeforeAllocation: a header whose rows cannot
// fit in the payload at DEFLATE's maximum ratio is refused before the
// image is allocated. An 8192x8192 header over an empty DEFLATE stream
// would otherwise allocate 201 MB only to fail on row 0.
func TestOversizedHeaderRefusedBeforeAllocation(t *testing.T) {
	data := headerOnly(t, 8192, 8192)
	for _, c := range []struct {
		name   string
		decode func() error
	}{
		{"Decode", func() error { _, err := Decode(data); return err }},
		{"DecodeRows", func() error { _, _, err := DecodeRows(data, 4096); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: %d-byte stream with an 8192x8192 header decoded", c.name, len(data))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Fatalf("%s: refusing a %d-byte stream allocated %d bytes", c.name, len(data), alloc)
		}
	}
}

// FuzzDecode feeds arbitrary bytes through Decode, DecodeRows and
// DecodeProgressive. Any outcome but a panic or a wrongly sized image is
// acceptable; the payload bound keeps every execution's allocation within
// 1032x its input. The seed corpus is the truncation and bit-flip inputs
// above, so plain go test runs it; go test -fuzz=FuzzDecode explores from
// there.
func FuzzDecode(f *testing.F) {
	flat, prog := truncationInputs(f)
	for _, enc := range [][]byte{flat, prog} {
		for n := 0; n <= len(enc); n += 16 {
			f.Add(enc[:n])
		}
		f.Add(enc)
	}
	for _, corrupted := range bitFlipInputs()[:64] {
		f.Add(corrupted)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := Decode(data); err == nil {
			w, h, _ := DecodeHeader(data)
			if m.W != w || m.H != h || len(m.Pix) != w*h*3 {
				t.Fatalf("Decode: %dx%d image with %d bytes, header %dx%d", m.W, m.H, len(m.Pix), w, h)
			}
		}
		if m, stats, err := DecodeRows(data, 10); err == nil {
			if m.H != stats.RowsDecoded || m.H > 10 || m.H > stats.RowsTotal {
				t.Fatalf("DecodeRows: %d-row image, stats %+v", m.H, stats)
			}
		}
		if m, stats, err := DecodeProgressive(data, 8, 8); err == nil {
			if m == nil || len(m.Pix) != m.W*m.H*3 || stats.LevelsDecoded == 0 {
				t.Fatalf("DecodeProgressive: bad image or stats %+v", stats)
			}
		}
	})
}

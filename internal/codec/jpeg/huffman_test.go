package jpeg

import (
	"fmt"
	"math/rand"
	"testing"
)

// serialReadBits reads n bits one at a time through readBit: the oracle
// for readBits' buffered shift-and-mask path.
func serialReadBits(r *bitReader, n uint8) (uint16, error) {
	var v uint16
	for i := uint8(0); i < n; i++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint16(b)
	}
	return v, nil
}

// serialDecode is the bit-serial min-code/max-code walk (T.81 Annex
// F.2.2.3) with no lookup table: the oracle for decHuff.decode.
func serialDecode(h *decHuff, br *bitReader) (byte, error) {
	code := int32(0)
	for length := 1; length <= 16; length++ {
		bit, err := br.readBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | int32(bit)
		if h.maxCode[length] >= 0 && code <= h.maxCode[length] {
			idx := h.valPtr[length] + code - h.minCode[length]
			if int(idx) >= len(h.values) {
				return 0, fmt.Errorf("jpeg: corrupt huffman stream")
			}
			return h.values[idx], nil
		}
	}
	return 0, fmt.Errorf("jpeg: invalid huffman code")
}

// randomHuffSpec draws a valid canonical table: per-length counts that
// respect the Kraft inequality (sometimes filling the code space
// completely) over distinct random symbols.
func randomHuffSpec(rng *rand.Rand) huffSpec {
	var spec huffSpec
	maxLen := 1 + rng.Intn(16)
	code, total := 0, 0
	for length := 1; length <= maxLen; length++ {
		room := min(1<<length-code, 256-total, 255)
		n := 0
		switch {
		case length == maxLen && rng.Intn(2) == 0:
			n = room // complete (or symbol-capped) code
		case room > 0:
			n = rng.Intn(1 + min(room, 6))
		}
		spec.counts[length-1] = byte(n)
		code, total = (code+n)<<1, total+n
	}
	if total == 0 {
		spec.counts[maxLen-1], total = 1, 1
	}
	for _, v := range rng.Perm(256)[:total] {
		spec.values = append(spec.values, byte(v))
	}
	return spec
}

// diffOp is one read in a differential script: a Huffman symbol when
// bits == 0, otherwise readBits(bits-1).
type diffOp struct{ bits uint8 }

// hostileStream encodes a random script of symbols and raw bit fields
// with spec, then damages it: cut short, a marker spliced in, random bytes
// (with stuffed and unstuffed 0xFF) appended or substituted.
func hostileStream(rng *rand.Rand, spec huffSpec) ([]diffOp, []byte) {
	enc := buildEncHuff(spec)
	var bw bitWriter
	ops := make([]diffOp, 1+rng.Intn(200))
	for i := range ops {
		if rng.Intn(2) == 0 {
			sym := spec.values[rng.Intn(len(spec.values))]
			bw.writeBits(enc.code[sym], enc.size[sym])
			continue
		}
		n := uint8(rng.Intn(17))
		ops[i].bits = n + 1
		bw.writeBits(uint16(rng.Intn(1<<n)), n)
	}
	bw.flush()
	data := damage(rng, bw.buf)
	// Keep reading past the encoded script so every stream ends in an error.
	for n := 1 + rng.Intn(8); n > 0; n-- {
		ops = append(ops, diffOp{uint8(rng.Intn(18))})
	}
	return ops, data
}

// damage breaks an encoded entropy stream the ways real streams end or
// break, or leaves it intact one time in six.
func damage(rng *rand.Rand, data []byte) []byte {
	switch rng.Intn(6) {
	case 0: // short tail
		data = data[:rng.Intn(len(data)+1)]
	case 1: // embedded marker (restart, EOI or any other)
		markers := []byte{0xd0, 0xd7, 0xd9, 0xc4, 0x01}
		at := rng.Intn(len(data) + 1)
		m := []byte{0xff, markers[rng.Intn(len(markers))]}
		data = append(append(append([]byte(nil), data[:at]...), m...), data[at:]...)
	case 2: // random trailing bytes, rich in 0xFF
		for n := rng.Intn(8); n > 0; n-- {
			data = append(data, []byte{0xff, 0x00, byte(rng.Intn(256))}[rng.Intn(3)])
		}
	case 3: // random substitutions: invalid codes, unstuffed 0xFF
		data = append([]byte(nil), data...)
		for n := 1 + rng.Intn(4); n > 0 && len(data) > 0; n-- {
			data[rng.Intn(len(data))] = []byte{0xff, 0x00, byte(rng.Intn(256))}[rng.Intn(3)]
		}
	case 4: // a lone 0xFF as the last byte
		data = append(data, 0xff)
	}
	return data
}

// TestHuffmanDecodeMatchesSerialOracle: the table-driven decode and the
// buffered readBits must return the symbols, bit fields and errors the
// bit-serial reader returns, at the same read, for the Annex K tables and
// random canonical tables over hostile streams.
func TestHuffmanDecodeMatchesSerialOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	specs := []huffSpec{stdDCLuma, stdACLuma, stdDCChroma, stdACChroma}
	for i := 0; i < 200; i++ {
		specs = append(specs, randomHuffSpec(rng))
	}
	for si, spec := range specs {
		if err := checkHuffSpec(&spec.counts); err != nil {
			t.Fatalf("spec %d: generated table rejected: %v", si, err)
		}
		h := buildDecHuff(spec)
		for trial := 0; trial < 20; trial++ {
			ops, data := hostileStream(rng, spec)
			fast := &bitReader{data: data}
			slow := &bitReader{data: data}
			for oi, op := range ops {
				var got, want uint16
				var gotErr, wantErr error
				if op.bits == 0 {
					var g, w byte
					g, gotErr = h.decode(fast)
					w, wantErr = serialDecode(h, slow)
					got, want = uint16(g), uint16(w)
				} else {
					got, gotErr = fast.readBits(op.bits - 1)
					want, wantErr = serialReadBits(slow, op.bits-1)
				}
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
					t.Fatalf("spec %d trial %d op %d (%+v) on % x: got (%d, %v), oracle (%d, %v)",
						si, trial, oi, op, data, got, gotErr, want, wantErr)
				}
				if wantErr != nil {
					break
				}
			}
		}
	}
}

// TestParseRejectsOversubscribedHuffmanTable: counts that leave no room
// for the codes they declare (five 1-bit codes) or declare more than 256
// symbols must fail Parse with an error instead of building a table.
func TestParseRejectsOversubscribedHuffmanTable(t *testing.T) {
	cases := []struct {
		name   string
		counts [16]byte
		ok     bool
	}{
		{"five-1-bit-codes", [16]byte{5}, false},
		{"257-symbols", [16]byte{8: 255, 9: 2}, false}, // within Kraft, too many symbols
		{"complete-1-bit", [16]byte{2}, true},          // codes 0 and 1 fill the space
	}
	valid := Encode(testImage(16, 16, 3), EncodeOptions{})
	for _, c := range cases {
		payload := append([]byte{0x00}, c.counts[:]...) // DC table 0
		for _, n := range c.counts {
			payload = append(payload, make([]byte, n)...)
		}
		seg := append([]byte{0xff, 0xc4, byte((len(payload) + 2) >> 8), byte(len(payload) + 2)}, payload...)
		stream := append(append([]byte{0xff, 0xd8}, seg...), valid[2:]...)
		var dec Decoder
		_, _, err := dec.Parse(stream)
		if c.ok != (err == nil) {
			t.Errorf("%s: Parse error %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestBuildDecHuffBoundsOversubscribed: even if an oversubscribed table
// reached buildDecHuff, its lookup fill stays in bounds, first writer
// wins, and decoding returns without panicking.
func TestBuildDecHuffBoundsOversubscribed(t *testing.T) {
	h := buildDecHuff(huffSpec{counts: [16]byte{5}, values: []byte{10, 11, 12, 13, 14}})
	if h.lookup[0] != 1<<8|10 || h.lookup[len(h.lookup)-1] != 1<<8|11 {
		t.Fatalf("lookup ends %#x, %#x; want the 1-bit codes 0 and 1", h.lookup[0], h.lookup[len(h.lookup)-1])
	}
	br := &bitReader{data: []byte{0xa5, 0x3c, 0xff, 0x00}}
	for i := 0; i < 64; i++ {
		if _, err := h.decode(br); err != nil {
			break
		}
	}
}

package jpeg

import "fmt"

// encHuff is an encoder-side Huffman table: code and size per symbol.
type encHuff struct {
	code [256]uint16
	size [256]uint8
}

// buildEncHuff derives canonical codes from a huffSpec, exactly as JPEG's
// Annex C specifies.
func buildEncHuff(spec huffSpec) *encHuff {
	var h encHuff
	code := uint16(0)
	k := 0
	for length := 1; length <= 16; length++ {
		for i := 0; i < int(spec.counts[length-1]); i++ {
			sym := spec.values[k]
			h.code[sym] = code
			h.size[sym] = uint8(length)
			code++
			k++
		}
		code <<= 1
	}
	return &h
}

// lookupBits is the code length the decode lookup table resolves in one
// step. Nine bits cover nearly every symbol of the Annex K tables.
const lookupBits = 9

// skipBits is the window an AC table's skip entry resolves: every whole
// symbol (code plus magnitude bits) that fits in the next skipBits bits.
const skipBits = 12

// Skip entry layout: bits consumed in the low 4 bits, the zig-zag advance
// (at most 12 ZRLs, 192) in the next 8, and skipEOB when the last symbol
// is an end-of-block.
const (
	skipAdvShift = 4
	skipEOB      = 1 << 12
)

// decHuff is a decoder-side Huffman table. Codes of at most lookupBits bits
// resolve through a direct lookup; longer codes, and any code read while
// fewer than lookupBits bits remain, use the standard JPEG
// min-code/max-code/value-pointer procedure (T.81 Annex F.2.2.3).
//
// The block decoder also reads lookup as a fused run/size table: one hit
// gives the code length and the symbol, whose low nibble is the magnitude
// size, so with enough bits buffered the code and its magnitude are
// consumed in one step. AC tables of scans that skip coefficients also
// carry skip, which consumes several symbols at once where a block keeps
// no coefficient.
type decHuff struct {
	// lookup is indexed by the next lookupBits bits of the stream and holds
	// len<<8 | symbol for the code they start with, or 0 when that code is
	// longer than lookupBits or the bits start no code.
	lookup [1 << lookupBits]uint16
	// skip, nil for DC tables and until a decode first skips coefficients
	// (see decoder.buildSkipTables), is indexed by the next skipBits bits and
	// holds the bits consumed, the zig-zag advance (run+1 per coefficient,
	// 16 per ZRL) and skipEOB for the whole AC symbols those bits hold, up
	// to and including an end-of-block. An entry of 0 bits means the first
	// symbol does not fit.
	skip    *[1 << skipBits]uint16
	minCode [17]int32
	maxCode [17]int32 // -1 when no codes of this length
	valPtr  [17]int32
	values  []byte
}

// checkHuffSpec rejects code-length counts that do not describe a prefix
// code: more than 256 symbols, or more codes of some length than that
// length leaves room for (the Kraft inequality).
func checkHuffSpec(counts *[16]byte) error {
	code, total := 0, 0
	for length := 1; length <= 16; length++ {
		n := int(counts[length-1])
		code += n
		total += n
		if code > 1<<length {
			return fmt.Errorf("jpeg: oversubscribed huffman table (%d-bit codes)", length)
		}
		code <<= 1
	}
	if total > 256 {
		return fmt.Errorf("jpeg: huffman table has %d symbols", total)
	}
	return nil
}

// buildDecHuff derives the decode tables from a huffSpec. The lookup fill
// is bounds-checked and first-writer-wins, so even counts that
// checkHuffSpec would reject cannot index past the table.
func buildDecHuff(spec huffSpec) *decHuff {
	h := &decHuff{values: append([]byte(nil), spec.values...)}
	code := int32(0)
	k := int32(0)
	for length := 1; length <= 16; length++ {
		n := int32(spec.counts[length-1])
		if n == 0 {
			h.maxCode[length] = -1
		} else {
			h.valPtr[length] = k
			h.minCode[length] = code
			if length <= lookupBits {
				h.fillLookup(code, n, k, length)
			}
			code += n
			k += n
			h.maxCode[length] = code - 1
		}
		code <<= 1
	}
	return h
}

// buildSkip fills the skip table of an AC table. The entry of an r-bit
// window is its first symbol plus the entry of the bits that symbol
// leaves, so the windows are built from 1 bit up to skipBits, each from
// narrower ones: every code that fits fills the windows it prefixes, and
// windows no whole symbol fits stay 0. The table's counts must have passed
// checkHuffSpec, so every code of length n is below 1<<n.
func (h *decHuff) buildSkip() {
	h.skip = new([1 << skipBits]uint16)
	// part[1<<r : 2<<r] holds the entries of the r-bit windows, r < skipBits.
	var part [1 << skipBits]uint16
	for r := uint(1); r <= skipBits; r++ {
		level := h.skip[:]
		if r < skipBits {
			level = part[1<<r : 2<<r]
		}
		for n := uint(1); n <= r; n++ {
			for code := h.minCode[n]; code <= h.maxCode[n]; code++ {
				sym := h.values[h.valPtr[n]+code-h.minCode[n]]
				size := uint(sym & 0xf)
				if n+size > r {
					continue
				}
				win := level[uint32(code)<<(r-n) : uint32(code+1)<<(r-n)]
				if size == 0 && sym>>4 != 15 { // EOB
					for j := range win {
						win[j] = uint16(n) | skipEOB
					}
					continue
				}
				// Bits consumed and advances add; the EOB flag comes from
				// the rest, whose entry is 0 when nothing fits.
				rest := r - n - size
				e := uint16(n+size) + uint16(sym>>4+1)<<skipAdvShift
				sub := part[1<<rest : 2<<rest]
				for j := range win {
					win[j] = e + sub[uint(j)&(1<<rest-1)]
				}
			}
		}
	}
}

// fillLookup enters the n codes of the given length starting at code (and
// their symbols starting at values[k]) into every lookup slot they prefix.
func (h *decHuff) fillLookup(code, n, k int32, length int) {
	shift := uint(lookupBits - length)
	for i := int32(0); i < n && int(k+i) < len(h.values); i++ {
		entry := uint16(length)<<8 | uint16(h.values[k+i])
		for j := (code + i) << shift; j < (code+i+1)<<shift; j++ {
			if j >= int32(len(h.lookup)) {
				return
			}
			if h.lookup[j] == 0 {
				h.lookup[j] = entry
			}
		}
	}
}

// decode reads one Huffman-coded symbol from the bit reader.
func (h *decHuff) decode(br *bitReader) (byte, error) {
	if br.n < lookupBits {
		_ = br.fill() // a short buffer falls through to the walk, which reports the error
	}
	if br.n >= lookupBits {
		if e := h.lookup[br.acc>>(br.n-lookupBits)&(1<<lookupBits-1)]; e != 0 {
			br.n -= uint(e >> 8)
			return byte(e), nil
		}
	}
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

// bitCount returns the number of bits needed to represent |v| (the JPEG
// "magnitude category").
func bitCount(v int32) uint8 {
	if v < 0 {
		v = -v
	}
	var n uint8
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}

// encodeMagnitude maps a signed value to its JPEG magnitude bits.
func encodeMagnitude(v int32, n uint8) uint16 {
	if v >= 0 {
		return uint16(v)
	}
	return uint16(v + (1 << n) - 1)
}

// extendMagnitude reconstructs a signed value from n magnitude bits (T.81
// F.2.2.1 EXTEND).
func extendMagnitude(bits uint16, n uint8) int32 {
	if n == 0 {
		return 0
	}
	v := int32(bits)
	if v < 1<<(n-1) {
		v += -(1 << n) + 1
	}
	return v
}

package jpeg

import (
	"encoding/binary"
	"fmt"
	"io"
)

// bitWriter writes MSB-first bits with JPEG 0xFF byte stuffing.
type bitWriter struct {
	buf   []byte
	acc   uint32
	nbits uint
}

func (w *bitWriter) writeBits(bits uint16, n uint8) {
	if n == 0 {
		return
	}
	w.acc = w.acc<<n | uint32(bits)&((1<<n)-1)
	w.nbits += uint(n)
	for w.nbits >= 8 {
		b := byte(w.acc >> (w.nbits - 8))
		w.buf = append(w.buf, b)
		if b == 0xff {
			w.buf = append(w.buf, 0x00) // byte stuffing
		}
		w.nbits -= 8
	}
}

// flush pads the final partial byte with 1-bits as the standard requires.
func (w *bitWriter) flush() {
	if w.nbits > 0 {
		pad := 8 - w.nbits
		w.writeBits((1<<pad)-1, uint8(pad))
	}
}

// bitReader reads MSB-first bits from entropy-coded data, removing 0xFF00
// stuffing and stopping at markers. The 64-bit accumulator holds up to 64
// bits, so one fill serves several symbols and the block decoder can
// consume a code and its magnitude bits in one step.
type bitReader struct {
	data []byte
	pos  int
	acc  uint64
	n    uint
	// bytesRead counts entropy bytes moved into the accumulator (up to 8
	// bytes ahead of the bits decoded), used by the partial-decoding
	// statistics to quantify early-stop savings.
	bytesRead int
}

var errMarker = fmt.Errorf("jpeg: marker in entropy stream")

// fill tops the buffer up to more than 56 bits, stopping early at the end
// of the data or at a marker. When the next 8 bytes hold no 0xFF (so no
// stuffing and no marker), it loads as many of them as fit in one step;
// otherwise the byte loop runs. It returns an error only when no bit is
// buffered and none can be read, so a caller that finds enough bits
// buffered afterwards may ignore it.
func (r *bitReader) fill() error {
	if r.n <= 56 && r.pos+8 <= len(r.data) {
		x := binary.BigEndian.Uint64(r.data[r.pos:])
		// SWAR zero-byte test on ^x: a 0xFF byte of x is a zero byte of ^x.
		if y := ^x; (y-0x0101010101010101)&^y&0x8080808080808080 == 0 {
			nb := (64 - r.n) / 8
			r.acc = r.acc<<(nb*8) | x>>(64-nb*8)
			r.n += nb * 8
			r.pos += int(nb)
			r.bytesRead += int(nb)
			return nil
		}
	}
	for r.n <= 56 {
		if r.pos >= len(r.data) {
			if r.n == 0 {
				return io.ErrUnexpectedEOF
			}
			return nil
		}
		b := r.data[r.pos]
		if b == 0xff {
			if r.pos+1 >= len(r.data) {
				// A lone 0xFF ends the data like a marker would: the
				// bits already buffered stay readable.
				if r.n == 0 {
					return io.ErrUnexpectedEOF
				}
				return nil
			}
			next := r.data[r.pos+1]
			if next == 0x00 {
				r.pos += 2 // stuffed byte
				r.bytesRead += 2
			} else {
				// A real marker terminates the entropy stream.
				if r.n == 0 {
					return errMarker
				}
				return nil
			}
		} else {
			r.pos++
			r.bytesRead++
		}
		r.acc = r.acc<<8 | uint64(b)
		r.n += 8
	}
	return nil
}

func (r *bitReader) readBit() (uint8, error) {
	if r.n == 0 {
		if err := r.fill(); err != nil {
			return 0, err
		}
		if r.n == 0 {
			return 0, io.ErrUnexpectedEOF
		}
	}
	r.n--
	return uint8(r.acc>>r.n) & 1, nil
}

// readBits reads n bits MSB-first. When the buffer holds (or one fill
// brings) n bits it shifts and masks them out in one step; otherwise the
// bit loop runs, so truncation, stuffing and marker errors surface exactly
// where bit-at-a-time reading would report them.
func (r *bitReader) readBits(n uint8) (uint16, error) {
	if r.n < uint(n) {
		_ = r.fill() // a short buffer falls through to the bit loop, which reports the error
	}
	if r.n >= uint(n) {
		r.n -= uint(n)
		return uint16(r.acc >> r.n & (1<<n - 1)), nil
	}
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

// isRST reports whether b is a restart marker byte (0xD0..0xD7).
func isRST(b byte) bool { return b >= 0xd0 && b <= 0xd7 }

// syncToRestart discards any buffered partial byte, consumes the expected
// restart marker, and leaves the reader positioned at the start of the next
// restart segment. The marker is expected right after the last byte the
// scan consumed bits of, however far fill read ahead.
func (r *bitReader) syncToRestart() error {
	// The encoder byte-aligned before the marker, so a partial byte is
	// padding. Whole buffered bytes were read ahead but not consumed: step
	// back over them. fill loads 0xFF only as a stuffed 0xFF00 pair and
	// never past a marker, so a 0x00 after 0xFF is such a pair.
	for ; r.n >= 8; r.n -= 8 {
		r.pos--
		r.bytesRead--
		if r.data[r.pos] == 0x00 && r.pos > 0 && r.data[r.pos-1] == 0xff {
			r.pos--
			r.bytesRead--
		}
	}
	r.acc, r.n = 0, 0
	if r.pos+2 > len(r.data) {
		return io.ErrUnexpectedEOF
	}
	if r.data[r.pos] != 0xff || !isRST(r.data[r.pos+1]) {
		return fmt.Errorf("jpeg: expected restart marker at offset %d, found %02x%02x",
			r.pos, r.data[r.pos], r.data[r.pos+1])
	}
	r.pos += 2
	r.bytesRead += 2
	return nil
}

// skipRestartSegments scans the raw entropy stream for the k-th restart
// marker without entropy-decoding, positioning the reader just past it.
// It returns the number of compressed bytes skipped. This is what makes
// restart intervals valuable for ROI decoding: segments before the region
// of interest cost only a byte scan, not Huffman decoding.
func (r *bitReader) skipRestartSegments(k int) (int, error) {
	start := r.pos
	seen := 0
	for i := r.pos; i+1 < len(r.data); i++ {
		if r.data[i] != 0xff {
			continue
		}
		next := r.data[i+1]
		if isRST(next) {
			seen++
			if seen == k {
				r.pos = i + 2
				r.acc, r.n = 0, 0
				return r.pos - start, nil
			}
			i++ // step past the marker byte
		} else if next == 0x00 {
			i++ // stuffed byte, not a marker
		} else {
			return 0, fmt.Errorf("jpeg: hit marker %02x while skipping restart segments", next)
		}
	}
	return 0, io.ErrUnexpectedEOF
}

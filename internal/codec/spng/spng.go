// Package spng implements a PNG-style lossless image codec: per-row
// predictive filters (None/Sub/Up/Average/Paeth, chosen per row by the
// minimum-sum-of-absolute-differences heuristic, as libpng does) over a
// DEFLATE stream.
//
// It stands in for the PNG thumbnails of the paper (libspng). Because the
// stream is row-sequential, it supports the "early stopping" low-fidelity
// feature of Table 4: DecodeRows inflates and unfilters only the first N
// rows, doing proportionally less work.
package spng

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"smol/internal/img"
)

// magic identifies an spng stream.
var magic = [4]byte{'S', 'P', 'N', 'G'}

// filter codes, matching PNG's definitions.
const (
	fNone = iota
	fSub
	fUp
	fAverage
	fPaeth
	numFilters
)

// Encode compresses m losslessly. level is the flate compression level
// (flate.DefaultCompression if 0).
func Encode(m *img.Image, level int) []byte {
	if level == 0 {
		level = flate.DefaultCompression
	}
	var buf bytes.Buffer
	buf.Write(magic[:])
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(m.W))
	binary.BigEndian.PutUint32(hdr[4:], uint32(m.H))
	buf.Write(hdr[:])

	fw, err := flate.NewWriter(&buf, level)
	if err != nil {
		panic(fmt.Sprintf("spng: flate writer: %v", err)) // only on bad level
	}
	stride := m.W * 3
	prev := make([]byte, stride) // zeroed: the row above row 0
	filtered := make([][]byte, numFilters)
	for i := range filtered {
		filtered[i] = make([]byte, stride)
	}
	for y := 0; y < m.H; y++ {
		row := m.Pix[y*stride : (y+1)*stride]
		best := chooseFilter(row, prev, filtered)
		if _, err := fw.Write([]byte{byte(best)}); err != nil {
			panic(err) // bytes.Buffer cannot fail
		}
		if _, err := fw.Write(filtered[best]); err != nil {
			panic(err)
		}
		prev = row
	}
	if err := fw.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// chooseFilter applies every filter to row and returns the index of the one
// with the smallest sum of absolute (signed-byte) values.
func chooseFilter(row, prev []byte, filtered [][]byte) int {
	applyFilters(row, prev, filtered)
	best, bestScore := 0, -1
	for f := 0; f < numFilters; f++ {
		score := 0
		for _, b := range filtered[f] {
			v := int(int8(b))
			if v < 0 {
				v = -v
			}
			score += v
		}
		if bestScore < 0 || score < bestScore {
			best, bestScore = f, score
		}
	}
	return best
}

func applyFilters(row, prev []byte, filtered [][]byte) {
	const bpp = 3
	for i := range row {
		var left, up, upLeft byte
		if i >= bpp {
			left = row[i-bpp]
			upLeft = prev[i-bpp]
		}
		up = prev[i]
		filtered[fNone][i] = row[i]
		filtered[fSub][i] = row[i] - left
		filtered[fUp][i] = row[i] - up
		filtered[fAverage][i] = row[i] - byte((int(left)+int(up))/2)
		filtered[fPaeth][i] = row[i] - paeth(left, up, upLeft)
	}
}

// paeth is PNG's Paeth predictor.
func paeth(a, b, c byte) byte {
	p := int(a) + int(b) - int(c)
	pa, pb, pc := abs(p-int(a)), abs(p-int(b)), abs(p-int(c))
	if pa <= pb && pa <= pc {
		return a
	}
	if pb <= pc {
		return b
	}
	return c
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// DecodeStats reports the work a (possibly partial) decode performed.
type DecodeStats struct {
	RowsDecoded int
	RowsTotal   int
}

// Decode decompresses the full image.
func Decode(data []byte) (*img.Image, error) {
	m, _, err := DecodeRows(data, 0)
	return m, err
}

// DecodeHeader returns the image dimensions without inflating pixel data.
func DecodeHeader(data []byte) (w, h int, err error) {
	if len(data) < 12 || !bytes.Equal(data[:4], magic[:]) {
		return 0, 0, errors.New("spng: bad magic")
	}
	w = int(binary.BigEndian.Uint32(data[4:]))
	h = int(binary.BigEndian.Uint32(data[8:]))
	if w <= 0 || h <= 0 || w > 1<<20 || h > 1<<20 || w*h > 1<<26 {
		return 0, 0, fmt.Errorf("spng: invalid dimensions %dx%d", w, h)
	}
	return w, h, nil
}

// maxDeflateRatio is DEFLATE's maximum expansion: a 258-byte match coded in
// two bits, so no valid stream inflates to more than 1032 bytes per
// compressed byte.
const maxDeflateRatio = 1032

// DecodeRows decompresses only the first maxRows rows (all rows when
// maxRows <= 0), returning an image of exactly the decoded height. Because
// rows are stored top-to-bottom in one DEFLATE stream, stopping early skips
// both inflation and unfiltering of the remaining rows.
func DecodeRows(data []byte, maxRows int) (*img.Image, *DecodeStats, error) {
	w, h, err := DecodeHeader(data)
	if err != nil {
		return nil, nil, err
	}
	rows := h
	if maxRows > 0 && maxRows < h {
		rows = maxRows
	}
	// Each row inflates to a filter byte plus 3w pixel bytes. A payload too
	// short to inflate to that much even at DEFLATE's maximum ratio cannot
	// hold the rows, so it is refused before the image is allocated.
	need, payload := int64(rows)*int64(1+3*w), int64(len(data)-12)
	if need > maxDeflateRatio*payload {
		return nil, nil, fmt.Errorf("spng: %dx%d header declares %d bytes for %d rows, more than a %d-byte payload can inflate to",
			w, h, need, rows, payload)
	}
	stats := &DecodeStats{RowsTotal: h}
	fr := flate.NewReader(bytes.NewReader(data[12:]))
	defer fr.Close()
	br := bufio.NewReader(fr)

	out := img.New(w, rows)
	stride := w * 3
	prev := make([]byte, stride)
	for y := 0; y < rows; y++ {
		ftype, err := br.ReadByte()
		if err != nil {
			return nil, nil, fmt.Errorf("spng: row %d filter: %w", y, err)
		}
		if ftype >= numFilters {
			return nil, nil, fmt.Errorf("spng: row %d: invalid filter %d", y, ftype)
		}
		row := out.Pix[y*stride : (y+1)*stride]
		if _, err := io.ReadFull(br, row); err != nil {
			return nil, nil, fmt.Errorf("spng: row %d pixels: %w", y, err)
		}
		unfilter(int(ftype), row, prev)
		prev = row
		stats.RowsDecoded++
	}
	return out, stats, nil
}

func unfilter(ftype int, row, prev []byte) {
	const bpp = 3
	switch ftype {
	case fNone:
	case fSub:
		for i := bpp; i < len(row); i++ {
			row[i] += row[i-bpp]
		}
	case fUp:
		for i := range row {
			row[i] += prev[i]
		}
	case fAverage:
		for i := range row {
			var left byte
			if i >= bpp {
				left = row[i-bpp]
			}
			row[i] += byte((int(left) + int(prev[i])) / 2)
		}
	case fPaeth:
		for i := range row {
			var left, upLeft byte
			if i >= bpp {
				left = row[i-bpp]
				upLeft = prev[i-bpp]
			}
			row[i] += paeth(left, prev[i], upLeft)
		}
	}
}

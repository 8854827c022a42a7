package vid

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"smol/internal/codec/blockdct"
	"smol/internal/img"
)

// loadBlock copies an 8x8 block at pixel origin (x0, y0) from p.
func loadBlock(p *plane, x0, y0 int, b *blockdct.Block) {
	for y := 0; y < blockSize; y++ {
		row := p.pix[(y0+y)*p.w+x0:]
		for x := 0; x < blockSize; x++ {
			b[y*blockSize+x] = int32(row[x])
		}
	}
}

// storeBlock writes an 8x8 block of clamped samples to p at (x0, y0).
func storeBlock(p *plane, x0, y0 int, b *blockdct.Block) {
	for y := 0; y < blockSize; y++ {
		row := p.pix[(y0+y)*p.w+x0:]
		for x := 0; x < blockSize; x++ {
			v := b[y*blockSize+x]
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			row[x] = uint8(v)
		}
	}
}

// encodeIntra codes every block of cur independently, reconstructing into
// recon. Returns the serialized payload.
func encodeIntra(cur, recon *frame, quant int32) []byte {
	w := &coefWriter{}
	var coeffs, samples blockdct.Block
	planes := []struct {
		src, dst *plane
		comp     int
	}{{cur.y, recon.y, 0}, {cur.cb, recon.cb, 1}, {cur.cr, recon.cr, 2}}
	for _, pl := range planes {
		for by := 0; by < pl.src.h/blockSize; by++ {
			for bx := 0; bx < pl.src.w/blockSize; bx++ {
				loadBlock(pl.src, bx*blockSize, by*blockSize, &samples)
				blockdct.FDCT(&samples, &coeffs)
				w.writeBlock(&coeffs, quant, pl.comp, true)
				// Reconstruct from the quantized coefficients.
				for i := range coeffs {
					coeffs[i] *= quant
				}
				blockdct.IDCT(&coeffs, &samples)
				storeBlock(pl.dst, bx*blockSize, by*blockSize, &samples)
			}
		}
	}
	return w.buf
}

// decodeIntra is the inverse of encodeIntra.
func decodeIntra(payload []byte, out *frame, quant int32, stats *DecodeStats) error {
	r := &coefReader{buf: payload}
	var coeffs, samples blockdct.Block
	planes := []struct {
		dst  *plane
		comp int
	}{{out.y, 0}, {out.cb, 1}, {out.cr, 2}}
	for _, pl := range planes {
		for by := 0; by < pl.dst.h/blockSize; by++ {
			for bx := 0; bx < pl.dst.w/blockSize; bx++ {
				if err := r.readBlock(&coeffs, quant, pl.comp, true); err != nil {
					return err
				}
				blockdct.IDCT(&coeffs, &samples)
				stats.BlocksIDCT++
				storeBlock(pl.dst, bx*blockSize, by*blockSize, &samples)
			}
		}
	}
	return nil
}

// sad16 computes the sum of absolute differences between the 16x16 luma
// macroblock of cur at (cx, cy) and ref at (cx+mvx, cy+mvy), with edge
// clamping on ref.
func sad16(cur, ref *plane, cx, cy, mvx, mvy int) int {
	s := 0
	for y := 0; y < mbSize; y++ {
		for x := 0; x < mbSize; x++ {
			c := int(cur.pix[(cy+y)*cur.w+cx+x])
			r := int(ref.at(cx+x+mvx, cy+y+mvy))
			d := c - r
			if d < 0 {
				d = -d
			}
			s += d
		}
	}
	return s
}

// motionSearch performs a three-step search (TSS) for the best full-pel
// motion vector within +/-searchRange.
func motionSearch(cur, ref *plane, cx, cy int) (mvx, mvy, sad int) {
	bestX, bestY := 0, 0
	best := sad16(cur, ref, cx, cy, 0, 0)
	for step := searchRange / 2; step >= 1; step /= 2 {
		improved := true
		for improved {
			improved = false
			for _, d := range [8][2]int{
				{-step, 0}, {step, 0}, {0, -step}, {0, step},
				{-step, -step}, {-step, step}, {step, -step}, {step, step},
			} {
				nx, ny := bestX+d[0], bestY+d[1]
				if nx < -searchRange || nx > searchRange || ny < -searchRange || ny > searchRange {
					continue
				}
				s := sad16(cur, ref, cx, cy, nx, ny)
				if s < best {
					best, bestX, bestY = s, nx, ny
					improved = true
				}
			}
		}
	}
	return bestX, bestY, best
}

// predictBlock copies the n x n block of p at (x0, y0) into dst (row-major,
// stride n). Motion vectors come from the payload, so the displaced block
// may lie partly or wholly outside the plane on either side; only then are
// reads edge-clamped sample by sample.
func predictBlock(p *plane, x0, y0, n int, dst []int32) {
	if x0 >= 0 && y0 >= 0 && x0+n <= p.w && y0+n <= p.h {
		for y := 0; y < n; y++ {
			src := p.pix[(y0+y)*p.w+x0:][:n]
			row := dst[y*n:][:n]
			for x, v := range src {
				row[x] = int32(v)
			}
		}
		return
	}
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			dst[y*n+x] = int32(p.at(x0+x, y0+y))
		}
	}
}

// predictMB builds the motion-compensated prediction of one macroblock,
// reading from ref. Chroma uses the luma vector halved.
func predictMB(ref *frame, mbx, mby, mvx, mvy int, predY *[mbSize * mbSize]int32, predCb, predCr *[(mbSize / 2) * (mbSize / 2)]int32) {
	cx, cy := mbx*mbSize, mby*mbSize
	predictBlock(ref.y, cx+mvx, cy+mvy, mbSize, predY[:])
	ccx, ccy := cx/2+mvx/2, cy/2+mvy/2
	predictBlock(ref.cb, ccx, ccy, mbSize/2, predCb[:])
	predictBlock(ref.cr, ccx, ccy, mbSize/2, predCr[:])
}

// mb block layout: 4 luma 8x8 blocks then Cb 8x8 then Cr 8x8.
type mbResidual struct {
	blocks [6]blockdct.Block
}

// encodeInter codes cur against ref, reconstructing into recon.
func encodeInter(cur, ref, recon *frame, quant int32) []byte {
	w := &coefWriter{}
	mbsX := cur.y.w / mbSize
	mbsY := cur.y.h / mbSize
	var predY [mbSize * mbSize]int32
	var predCb, predCr [(mbSize / 2) * (mbSize / 2)]int32
	var res mbResidual
	var coeffs blockdct.Block
	for mby := 0; mby < mbsY; mby++ {
		for mbx := 0; mbx < mbsX; mbx++ {
			cx, cy := mbx*mbSize, mby*mbSize
			mvx, mvy, _ := motionSearch(cur.y, ref.y, cx, cy)
			predictMB(ref, mbx, mby, mvx, mvy, &predY, &predCb, &predCr)

			// Compute residual blocks and quantize them (via a dry-run
			// writer) to make the skip decision.
			computeResiduals(cur, cx, cy, &predY, &predCb, &predCr, &res)
			allZero := true
			var quantized [6]blockdct.Block
			for b := 0; b < 6; b++ {
				blockdct.FDCTRaw(&res.blocks[b], &coeffs)
				quantized[b] = coeffs
				for i := range coeffs {
					c := coeffs[i]
					var q int32
					if c >= 0 {
						q = (c + quant/2) / quant
					} else {
						q = -((-c + quant/2) / quant)
					}
					quantized[b][i] = q
					if q != 0 {
						allZero = false
					}
				}
			}

			if allZero && mvx == 0 && mvy == 0 {
				w.buf = append(w.buf, 0) // skip mode
				reconstructMB(recon, cx, cy, &predY, &predCb, &predCr, nil, quant)
				continue
			}
			w.buf = append(w.buf, 1) // inter mode
			w.buf = append(w.buf, byte(int8(mvx)), byte(int8(mvy)))
			for b := 0; b < 6; b++ {
				// Serialize the already-quantized block: writeBlock expects
				// unquantized input, so emit with quant=1.
				blk := quantized[b]
				w.writeBlock(&blk, 1, 0, false)
			}
			reconstructMB(recon, cx, cy, &predY, &predCb, &predCr, &quantized, quant)
		}
	}
	return w.buf
}

// computeResiduals fills res with cur - pred for the 6 blocks of the MB.
func computeResiduals(cur *frame, cx, cy int, predY *[mbSize * mbSize]int32, predCb, predCr *[(mbSize / 2) * (mbSize / 2)]int32, res *mbResidual) {
	for dy := 0; dy < 2; dy++ {
		for dx := 0; dx < 2; dx++ {
			b := &res.blocks[dy*2+dx]
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					py := dy*blockSize + y
					px := dx*blockSize + x
					c := int32(cur.y.pix[(cy+py)*cur.y.w+cx+px])
					b[y*blockSize+x] = c - predY[py*mbSize+px]
				}
			}
		}
	}
	half := mbSize / 2
	ccx, ccy := cx/2, cy/2
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			c := int32(cur.cb.pix[(ccy+y)*cur.cb.w+ccx+x])
			res.blocks[4][y*blockSize+x] = c - predCb[y*half+x]
			c = int32(cur.cr.pix[(ccy+y)*cur.cr.w+ccx+x])
			res.blocks[5][y*blockSize+x] = c - predCr[y*half+x]
		}
	}
}

// reconstructMB writes pred (+ dequantized residual when non-nil) into recon.
func reconstructMB(recon *frame, cx, cy int, predY *[mbSize * mbSize]int32, predCb, predCr *[(mbSize / 2) * (mbSize / 2)]int32, quantized *[6]blockdct.Block, quant int32) {
	var coeffs, resid blockdct.Block
	addBlock := func(dst *plane, x0, y0 int, pred []int32, predStride int, q *blockdct.Block) {
		if q != nil {
			coeffs = *q
			for i := range coeffs {
				coeffs[i] *= quant
			}
			blockdct.IDCTRaw(&coeffs, &resid)
		} else {
			resid = blockdct.Block{}
		}
		for y := 0; y < blockSize; y++ {
			row := dst.pix[(y0+y)*dst.w+x0:]
			for x := 0; x < blockSize; x++ {
				v := pred[y*predStride+x] + resid[y*blockSize+x]
				if v < 0 {
					v = 0
				} else if v > 255 {
					v = 255
				}
				row[x] = uint8(v)
			}
		}
	}
	for dy := 0; dy < 2; dy++ {
		for dx := 0; dx < 2; dx++ {
			var q *blockdct.Block
			if quantized != nil {
				q = &quantized[dy*2+dx]
			}
			addBlock(recon.y, cx+dx*blockSize, cy+dy*blockSize,
				predY[dy*blockSize*mbSize+dx*blockSize:], mbSize, q)
		}
	}
	half := mbSize / 2
	var qcb, qcr *blockdct.Block
	if quantized != nil {
		qcb, qcr = &quantized[4], &quantized[5]
	}
	addBlock(recon.cb, cx/2, cy/2, predCb[:], half, qcb)
	addBlock(recon.cr, cx/2, cy/2, predCr[:], half, qcr)
}

// decodeInter is the inverse of encodeInter.
func decodeInter(payload []byte, ref, out *frame, quant int32, stats *DecodeStats) error {
	r := &coefReader{buf: payload}
	mbsX := out.y.w / mbSize
	mbsY := out.y.h / mbSize
	var predY [mbSize * mbSize]int32
	var predCb, predCr [(mbSize / 2) * (mbSize / 2)]int32
	for mby := 0; mby < mbsY; mby++ {
		for mbx := 0; mbx < mbsX; mbx++ {
			cx, cy := mbx*mbSize, mby*mbSize
			mode, err := r.readByte()
			if err != nil {
				return err
			}
			switch mode {
			case 0: // skip
				predictMB(ref, mbx, mby, 0, 0, &predY, &predCb, &predCr)
				reconstructMB(out, cx, cy, &predY, &predCb, &predCr, nil, quant)
				stats.SkippedMBs++
			case 1: // inter with residual
				bx, err := r.readByte()
				if err != nil {
					return err
				}
				by, err := r.readByte()
				if err != nil {
					return err
				}
				mvx, mvy := int(int8(bx)), int(int8(by))
				predictMB(ref, mbx, mby, mvx, mvy, &predY, &predCb, &predCr)
				var quantized [6]blockdct.Block
				for b := 0; b < 6; b++ {
					if err := r.readBlock(&quantized[b], 1, 0, false); err != nil {
						return err
					}
					stats.BlocksIDCT++
				}
				reconstructMB(out, cx, cy, &predY, &predCb, &predCr, &quantized, quant)
				stats.InterMBs++
			default:
				return fmt.Errorf("vid: unknown macroblock mode %d", mode)
			}
		}
	}
	return nil
}

// deblockFrame applies the in-loop deblocking filter across 8x8 block
// boundaries of all planes. A nil stats skips counting (encoder side).
func deblockFrame(f *frame, stats *DecodeStats) {
	const alphaT = 24 // edge activation threshold
	const betaT = 8   // local gradient threshold
	edges := 0
	filter := func(p *plane) {
		// Vertical boundaries.
		for x := blockSize; x < p.w; x += blockSize {
			for y := 0; y < p.h; y++ {
				i := y*p.w + x
				p1, p0 := int(p.pix[i-2]), int(p.pix[i-1])
				q0, q1 := int(p.pix[i]), int(p.pix[i+1])
				d := q0 - p0
				if abs(d) < alphaT && abs(p1-p0) < betaT && abs(q1-q0) < betaT {
					delta := d / 4
					p.pix[i-1] = img.Clamp8(p0 + delta)
					p.pix[i] = img.Clamp8(q0 - delta)
					edges++
				}
			}
		}
		// Horizontal boundaries.
		for y := blockSize; y < p.h; y += blockSize {
			for x := 0; x < p.w; x++ {
				i := y*p.w + x
				p1, p0 := int(p.pix[i-2*p.w]), int(p.pix[i-p.w])
				q0, q1 := int(p.pix[i]), int(p.pix[i+p.w])
				d := q0 - p0
				if abs(d) < alphaT && abs(p1-p0) < betaT && abs(q1-q0) < betaT {
					delta := d / 4
					p.pix[i-p.w] = img.Clamp8(p0 + delta)
					p.pix[i] = img.Clamp8(q0 - delta)
					edges++
				}
			}
		}
	}
	filter(f.y)
	filter(f.cb)
	filter(f.cr)
	if stats != nil {
		stats.DeblockedEdges += edges
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Decoder streams frames out of an encoded bitstream. A Decoder holds
// reusable decode state — the reference frame P-frames predict from, a spare
// reconstruction frame, the DEFLATE reader, and the inflated payload buffer
// — so a resident decoder serving a stream performs no per-frame
// allocations beyond the output image, and none at all through NextInto
// with a recycled destination.
type Decoder struct {
	data    []byte
	pos     int
	opts    DecodeOptions
	w, h    int
	padW    int
	padH    int
	n       int
	gop     int
	quality int
	quant   int32
	idx     int
	ref     *frame
	stats   DecodeStats

	// spare is the recycled reconstruction target: every plane of every
	// frame is fully rewritten by decodeIntra/decodeInter, so the previous
	// reference can ping-pong back in once it stops being predicted from.
	spare *frame
	// parked holds the reference frame a SeekGOP releases: the next GOP's
	// I-frame needs no reference, but the frame's storage is kept so a
	// seeking decoder stays allocation-free (see reconFrame).
	parked *frame
	// index is the per-GOP byte-offset table, built lazily by GOPIndex or
	// injected by SetGOPIndex from a store sidecar.
	index []GOPEntry
	// inflater and payloadSrc are the resettable DEFLATE state; payload is
	// the reused inflated-frame buffer.
	inflater   io.ReadCloser
	payloadSrc bytes.Reader
	payload    []byte
}

// NewDecoder parses the stream header.
func NewDecoder(data []byte, opts DecodeOptions) (*Decoder, error) {
	if len(data) < 4+18 || string(data[:4]) != string(magic[:]) {
		return nil, errors.New("vid: bad magic")
	}
	hdr := data[4:]
	if binary.BigEndian.Uint16(hdr[0:]) != 1 {
		return nil, errors.New("vid: unsupported version")
	}
	w := int(binary.BigEndian.Uint32(hdr[2:]))
	h := int(binary.BigEndian.Uint32(hdr[6:]))
	n := int(binary.BigEndian.Uint32(hdr[10:]))
	gop := int(binary.BigEndian.Uint16(hdr[14:]))
	quality := int(hdr[16])
	if w <= 0 || h <= 0 || w > 1<<15 || h > 1<<15 || n < 0 {
		return nil, errors.New("vid: invalid header")
	}
	// Guard allocations against corrupted headers: cap total pixels (8K
	// video is ~33M px) and require the stream to be long enough to hold
	// at least a frame header per claimed frame.
	if w*h > 1<<26 {
		return nil, fmt.Errorf("vid: implausible frame size %dx%d", w, h)
	}
	if n > (len(data)-4-18)/5 {
		return nil, fmt.Errorf("vid: %d frames claimed but only %d payload bytes", n, len(data)-4-18)
	}
	return &Decoder{
		data: data, pos: 4 + 18, opts: opts,
		w: w, h: h, padW: padTo(w, mbSize), padH: padTo(h, mbSize),
		n: n, gop: gop, quality: quality, quant: quantFor(quality),
	}, nil
}

// Info summarizes a stream header without decoding any frames.
type Info struct {
	// W, H are the visible frame dimensions.
	W, H int
	// Frames is the total frame count.
	Frames int
	// GOP is the I-frame interval (decode cost per frame amortizes an
	// expensive intra frame over GOP-1 cheaper predicted ones).
	GOP int
	// Quality is the encoder quality the stream was produced with.
	Quality int
}

// Probe parses a stream header. It is the planner's peek: cheap enough to
// run per request, with the geometry and GOP the decode cost model needs.
func Probe(data []byte) (Info, error) {
	d, err := NewDecoder(data, DecodeOptions{})
	if err != nil {
		return Info{}, err
	}
	return Info{W: d.w, H: d.h, Frames: d.n, GOP: d.gop, Quality: d.quality}, nil
}

// Width returns the frame width in pixels.
func (d *Decoder) Width() int { return d.w }

// Height returns the frame height in pixels.
func (d *Decoder) Height() int { return d.h }

// NumFrames returns the total number of frames in the stream.
func (d *Decoder) NumFrames() int { return d.n }

// Stats returns the cumulative decode statistics.
func (d *Decoder) Stats() DecodeStats { return d.stats }

// ErrEndOfStream is returned by Next after the last frame.
var ErrEndOfStream = errors.New("vid: end of stream")

// inflate decompresses one frame record into the decoder's reused payload
// buffer, resetting the resident DEFLATE reader instead of allocating one.
//
//smol:noalloc
func (d *Decoder) inflate(compressed []byte) ([]byte, error) {
	d.payloadSrc.Reset(compressed)
	if d.inflater == nil {
		//smol:coldpath first frame builds the resident DEFLATE reader
		d.inflater = flate.NewReader(&d.payloadSrc)
	} else if err := d.inflater.(flate.Resetter).Reset(&d.payloadSrc, nil); err != nil {
		return nil, err
	}
	buf := d.payload[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := d.inflater.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	d.payload = buf
	return buf, nil
}

// reconFrame returns the reconstruction target for the next frame,
// recycling the spare (or a seek-parked reference) when one is resident.
func (d *Decoder) reconFrame() *frame {
	if d.spare != nil {
		f := d.spare
		d.spare = nil
		return f
	}
	if d.parked != nil {
		f := d.parked
		d.parked = nil
		return f
	}
	return newFrame(d.padW, d.padH)
}

// decodeNext advances the stream by one frame and returns the reconstructed
// (deblocked, unless disabled) frame. The previous reference frame is
// recycled as the next reconstruction target: decodeIntra and decodeInter
// rewrite every sample of every plane, so recycled contents never leak.
//
//smol:noalloc
func (d *Decoder) decodeNext() (*frame, error) {
	if d.idx >= d.n {
		return nil, ErrEndOfStream
	}
	if d.pos+5 > len(d.data) {
		//smol:coldpath malformed stream
		return nil, errors.New("vid: truncated frame header")
	}
	ftype := d.data[d.pos]
	plen := int(binary.BigEndian.Uint32(d.data[d.pos+1:]))
	d.pos += 5
	if d.pos+plen > len(d.data) {
		//smol:coldpath malformed stream
		return nil, errors.New("vid: truncated frame payload")
	}
	compressed := d.data[d.pos : d.pos+plen]
	d.pos += plen
	d.stats.CompressedBytes += plen
	payload, err := d.inflate(compressed)
	if err != nil {
		//smol:coldpath malformed stream
		return nil, fmt.Errorf("vid: frame %d: %w", d.idx, err)
	}
	recon := d.reconFrame()
	switch ftype {
	case 'I':
		if err := decodeIntra(payload, recon, d.quant, &d.stats); err != nil {
			d.spare = recon
			//smol:coldpath malformed stream
			return nil, fmt.Errorf("vid: frame %d: %w", d.idx, err)
		}
		d.stats.IntraMBs += (d.padW / mbSize) * (d.padH / mbSize)
	case 'P':
		if d.ref == nil {
			d.spare = recon
			//smol:coldpath malformed stream
			return nil, errors.New("vid: P-frame without reference")
		}
		if err := decodeInter(payload, d.ref, recon, d.quant, &d.stats); err != nil {
			d.spare = recon
			//smol:coldpath malformed stream
			return nil, fmt.Errorf("vid: frame %d: %w", d.idx, err)
		}
	default:
		d.spare = recon
		//smol:coldpath malformed stream
		return nil, fmt.Errorf("vid: unknown frame type %q", ftype)
	}
	if !d.opts.DisableDeblock {
		deblockFrame(recon, &d.stats)
	}
	d.spare = d.ref
	d.ref = recon
	d.idx++
	d.stats.FramesDecoded++
	return recon, nil
}

// Next decodes and returns the next frame, or ErrEndOfStream. Each call
// allocates a fresh output image; resident decoders should prefer NextInto
// with a recycled destination.
func (d *Decoder) Next() (*img.Image, error) {
	return d.NextInto(nil)
}

// NextInto decodes the next frame into dst, which is reused when it matches
// the stream dimensions and allocated otherwise (nil is always valid). A
// warm decoder cycling destinations through a pool decodes without
// per-frame allocations.
//
//smol:noalloc
func (d *Decoder) NextInto(dst *img.Image) (*img.Image, error) {
	recon, err := d.decodeNext()
	if err != nil {
		return nil, err
	}
	return frameToRGBInto(recon, d.w, d.h, dst), nil
}

// Skip decodes the next frame without converting it to RGB, advancing the
// reference state P-frames need. Stride-sampling callers Skip the frames
// they do not classify, saving the color conversion (the only part of
// decode a sampled stream can actually omit — motion compensation needs
// every reference).
//
//smol:noalloc
func (d *Decoder) Skip() error {
	_, err := d.decodeNext()
	return err
}

// DecodeAll decodes every frame in the stream.
func DecodeAll(data []byte, opts DecodeOptions) ([]*img.Image, error) {
	d, err := NewDecoder(data, opts)
	if err != nil {
		return nil, err
	}
	frames := make([]*img.Image, 0, d.NumFrames())
	for {
		f, err := d.Next()
		if errors.Is(err, ErrEndOfStream) {
			return frames, nil
		}
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
}

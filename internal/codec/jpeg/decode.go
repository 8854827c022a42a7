package jpeg

import (
	"bytes"
	"errors"
	"fmt"

	"smol/internal/codec/blockdct"
	"smol/internal/img"
)

// DecodeStats reports how much work a (possibly partial) decode performed.
// The partial-decoding experiments use these counters to verify that ROI,
// early-stop, and scaled decoding genuinely skip work.
type DecodeStats struct {
	// MCUsEntropyDecoded counts MCUs whose entropy data was consumed.
	MCUsEntropyDecoded int
	// MCUsTotal is the number of MCUs in the image.
	MCUsTotal int
	// BlocksIDCT counts 8x8 blocks that went through dequantization + IDCT.
	BlocksIDCT int
	// BlocksTotal is the total number of 8x8 blocks in the image.
	BlocksTotal int
	// IDCTSamples counts samples produced by inverse transforms: 64 per
	// block at full resolution, (8/Scale)^2 per block for scaled decoding.
	// The ratio IDCTSamples/BlocksIDCT exposes how much reconstruction
	// arithmetic a reduced-resolution decode skipped.
	IDCTSamples int
	// EntropyBytesRead counts compressed bytes consumed from the scan. The
	// bit reader buffers ahead, so the count can exceed the bytes the
	// decoded bits span by up to 8.
	EntropyBytesRead int
	// PixelsColorConverted counts output pixels that were color converted.
	PixelsColorConverted int
	// MCUsSkippedEntropy counts MCUs whose entropy decoding was skipped
	// entirely by jumping over restart segments before the ROI.
	MCUsSkippedEntropy int
	// EntropyBytesSkipped counts compressed bytes passed over by the
	// restart-segment scan (cheap byte scan, no Huffman decoding).
	EntropyBytesSkipped int
}

// DecodeOptions configures partial and reduced-resolution decoding.
type DecodeOptions struct {
	// ROI, when non-nil, restricts reconstruction to the macroblock-aligned
	// region containing the rectangle (pixel coordinates). Entropy decoding
	// still proceeds sequentially (as in real JPEG), but dequantization,
	// IDCT, upsampling, and color conversion are skipped outside the region,
	// and the scan stops after the last MCU row the region needs.
	ROI *img.Rect
	// EarlyStopRow, when > 0, decodes only pixel rows [0, EarlyStopRow),
	// stopping the scan at the first MCU row past it. Ignored when ROI is
	// set (the ROI implies its own stopping row).
	EarlyStopRow int
	// Scale, when > 1, reconstructs at reduced resolution directly in the
	// DCT domain: each 8x8 block inverse-transforms only its lowest
	// (8/Scale)^2 frequencies through a reduced 4x4/2x2/1x1 IDCT, so IDCT
	// and color conversion cost shrinks by ~Scale^2; at 1/8 each block is
	// its DC sample, filled without a transform. Entropy decoding still
	// reads every symbol, but AC coefficients outside the (8/Scale)^2
	// window are consumed without sign extension or store, several symbols
	// per table lookup past the window's last zig-zag index (at 1/8, every
	// AC symbol). Supported values are 1 (or 0), 2, 4 and 8. The output
	// approximates a full decode followed by a box downsample by Scale,
	// with dimensions img.ScaledDims of the reconstructed region. Composes
	// with ROI and EarlyStopRow, whose coordinates stay in full-resolution
	// pixels.
	Scale int
	// Dst, when non-nil, receives the decoded pixels: it is reshaped (the
	// buffer is reused when large enough) and returned, so warm serving
	// paths decode into pooled images instead of allocating per frame.
	Dst *img.Image
}

// SupportedScales lists the decode scales DecodeOptions.Scale accepts:
// full resolution plus the reduced reconstructions blockdct provides.
// Planners (preproc.Spec.DecodeScales) should use this list so they never
// propose a scale the decoder rejects.
func SupportedScales() []int {
	scales := []int{1}
	for _, n := range blockdct.ScaledSizes {
		scales = append(scales, blockSize/n)
	}
	return scales
}

// AlignedRegion returns the MCU-aligned cover of roi that a ROI decode
// reconstructs for an image of the given dimensions and MCU edge length,
// or an empty rectangle when roi misses the image. It is the single
// source of truth shared by the decoder and plan compilers that need the
// decoded geometry before decoding (e.g. the runtime's ingest planner).
func AlignedRegion(roi img.Rect, w, h, mcu int) img.Rect {
	region := roi.Intersect(img.Rect{X1: w, Y1: h})
	if region.Empty() {
		return img.Rect{}
	}
	return region.AlignTo(mcu, w, h)
}

// Decode decompresses a baseline JPEG produced by Encode (or any conforming
// baseline 3-component JFIF stream using 4:4:4 or 4:2:0 sampling).
func Decode(data []byte) (*img.Image, error) {
	m, _, _, err := DecodeWithOptions(data, DecodeOptions{})
	return m, err
}

// DecodeHeader parses only far enough to return the image dimensions.
func DecodeHeader(data []byte) (w, h int, err error) {
	d := &decoder{}
	d.reset(data)
	if err := d.parseSegments(true); err != nil {
		return 0, 0, err
	}
	return d.width, d.height, nil
}

// DecodeWithOptions decodes with partial-decoding options. The returned
// image covers only the reconstructed region, whose placement in the full
// image is given by the returned rectangle (always in full-resolution
// coordinates; with Scale > 1 the image holds the region downscaled by
// Scale). With no options the region is the whole image.
func DecodeWithOptions(data []byte, opts DecodeOptions) (*img.Image, img.Rect, *DecodeStats, error) {
	var r Decoder
	if _, _, err := r.Parse(data); err != nil {
		return nil, img.Rect{}, nil, err
	}
	return r.Decode(opts)
}

// Decoder is a reusable decoder for serving paths. Parse reads a stream's
// headers exactly once; Size, MCUSize and Decode then operate on the parsed
// state, removing the double header parse that chaining DecodeHeader with
// DecodeWithOptions costs. A warm Decoder also retains its Huffman tables
// (rebuilt only when a stream's DHT segments differ from the previous
// ones), its planar scratch, and — with DecodeOptions.Dst — the output
// image, so steady-state decoding performs no heap allocations.
//
// A Decoder is not safe for concurrent use; serving gives each worker its
// own.
type Decoder struct {
	d decoder
}

// Parse reads the stream's headers through SOS and returns the image
// dimensions. It must precede Decode and invalidates any previous state.
//
//smol:noalloc
func (r *Decoder) Parse(data []byte) (w, h int, err error) {
	r.d.reset(data)
	if err := r.d.parseSegments(false); err != nil {
		r.d.scanStart = 0
		return 0, 0, err
	}
	return r.d.width, r.d.height, nil
}

// Size returns the dimensions of the parsed image.
func (r *Decoder) Size() (w, h int) { return r.d.width, r.d.height }

// MCUSize returns the MCU edge length in pixels of the parsed image: 8 for
// 4:4:4 streams, 16 for 4:2:0. ROI regions align outward to this grid.
func (r *Decoder) MCUSize() int {
	if r.d.comps[0].hSamp == 2 {
		return 16
	}
	return blockSize
}

// Decode reconstructs the parsed stream with the given options. It may be
// called repeatedly with different options without re-parsing. The returned
// stats pointer aliases the Decoder and is valid until the next Decode or
// Parse call.
//
//smol:noalloc
func (r *Decoder) Decode(opts DecodeOptions) (*img.Image, img.Rect, *DecodeStats, error) {
	if r.d.scanStart == 0 {
		//smol:coldpath API misuse
		return nil, img.Rect{}, nil, errors.New("jpeg: Decode before successful Parse")
	}
	r.d.stats = DecodeStats{}
	m, region, err := r.d.decodeScan(opts)
	if err != nil {
		return nil, img.Rect{}, nil, err
	}
	return m, region, &r.d.stats, nil
}

type component struct {
	id       byte
	hSamp    int
	vSamp    int
	quantSel byte
	dcSel    byte
	acSel    byte
}

type decoder struct {
	data   []byte
	width  int
	height int
	comps  [3]component

	quant [4][64]int32
	// dqtSeen marks quant tables defined by the current stream, so a warm
	// Decoder cannot silently reuse a previous stream's tables when a
	// malformed stream omits its DQT segment.
	dqtSeen [4]bool
	dcTab   [4]*decHuff
	acTab   [4]*decHuff
	// dhtRaw caches each table's raw DHT segment and dhtSeen marks tables
	// defined by the current stream: identical segments (the common case —
	// most encoders, including this repo's, always emit the Annex K
	// tables) reuse the previously built decode tables without allocating.
	dhtRaw  [2][4][]byte
	dhtSeen [2][4]bool

	restartInterval int
	scanStart       int
	stats           DecodeStats

	// Per-scan state and reusable scratch: the bit reader, DC predictors
	// and block buffers live here (not on the stack of decodeScan) so the
	// block decode loop needs no closure, and the planar buffers are
	// reused across images by a warm Decoder.
	br      bitReader
	dcPred  [3]int32
	coeffs  block
	samples block
	planes  [3]plane
}

var errTruncated = errors.New("jpeg: truncated data")

// reset prepares the decoder for a new stream, keeping reusable caches
// (Huffman tables, quant storage, planar scratch).
func (d *decoder) reset(data []byte) {
	d.data = data
	d.width, d.height = 0, 0
	d.comps = [3]component{}
	d.dhtSeen = [2][4]bool{}
	d.dqtSeen = [4]bool{}
	d.restartInterval = 0
	d.scanStart = 0
	d.stats = DecodeStats{}
}

// sizedPlane returns planar scratch i reshaped to w x h, reusing its pixel
// buffer when possible. Contents are undefined; decodeScan writes every
// sample the color-conversion pass reads.
func (d *decoder) sizedPlane(i, w, h int) *plane {
	p := &d.planes[i]
	p.w, p.h = w, h
	if cap(p.pix) < w*h {
		p.pix = make([]uint8, w*h)
	} else {
		p.pix = p.pix[:w*h]
	}
	return p
}

func (d *decoder) parseSegments(headerOnly bool) error {
	p := 0
	if len(d.data) < 2 || d.data[0] != 0xff || d.data[1] != 0xd8 {
		return errors.New("jpeg: missing SOI")
	}
	p = 2
	for {
		if p+4 > len(d.data) {
			return errTruncated
		}
		if d.data[p] != 0xff {
			return fmt.Errorf("jpeg: expected marker at offset %d", p)
		}
		marker := d.data[p+1]
		p += 2
		if marker == 0xd9 { // EOI before SOS
			return errors.New("jpeg: no scan data")
		}
		if p+2 > len(d.data) {
			return errTruncated
		}
		n := int(d.data[p])<<8 | int(d.data[p+1])
		if n < 2 || p+n > len(d.data) {
			return errTruncated
		}
		payload := d.data[p+2 : p+n]
		p += n
		switch marker {
		case 0xc0: // SOF0 baseline
			if err := d.parseSOF(payload); err != nil {
				return err
			}
			if headerOnly {
				return nil
			}
		case 0xc1, 0xc2, 0xc3:
			return fmt.Errorf("jpeg: unsupported SOF marker 0xff%02x (only baseline)", marker)
		case 0xc4: // DHT
			if err := d.parseDHT(payload); err != nil {
				return err
			}
		case 0xdb: // DQT
			if err := d.parseDQT(payload); err != nil {
				return err
			}
		case 0xda: // SOS
			if err := d.parseSOS(payload); err != nil {
				return err
			}
			d.scanStart = p
			return nil
		case 0xdd: // DRI
			if len(payload) < 2 {
				return errTruncated
			}
			d.restartInterval = int(payload[0])<<8 | int(payload[1])
		default:
			// APPn, COM etc: skip.
		}
	}
}

func (d *decoder) parseSOF(p []byte) error {
	if len(p) < 6 {
		return errTruncated
	}
	if p[0] != 8 {
		return fmt.Errorf("jpeg: unsupported precision %d", p[0])
	}
	d.height = int(p[1])<<8 | int(p[2])
	d.width = int(p[3])<<8 | int(p[4])
	if d.width == 0 || d.height == 0 {
		return errors.New("jpeg: zero dimensions")
	}
	// Guard decode allocations against corrupted SOF dimensions: cap total
	// pixels well above any realistic photo but far below an OOM.
	if d.width*d.height > 1<<26 {
		return fmt.Errorf("jpeg: implausible dimensions %dx%d", d.width, d.height)
	}
	if p[5] != 3 {
		return fmt.Errorf("jpeg: unsupported component count %d", p[5])
	}
	if len(p) < 6+3*3 {
		return errTruncated
	}
	for i := 0; i < 3; i++ {
		c := p[6+i*3:]
		d.comps[i] = component{
			id:       c[0],
			hSamp:    int(c[1] >> 4),
			vSamp:    int(c[1] & 0xf),
			quantSel: c[2],
		}
		if c[2] > 3 {
			return errors.New("jpeg: bad quant table selector")
		}
	}
	y, cb, cr := d.comps[0], d.comps[1], d.comps[2]
	is444 := y.hSamp == 1 && y.vSamp == 1
	is420 := y.hSamp == 2 && y.vSamp == 2
	if !(is444 || is420) || cb.hSamp != 1 || cb.vSamp != 1 || cr.hSamp != 1 || cr.vSamp != 1 {
		return fmt.Errorf("jpeg: unsupported sampling %dx%d/%dx%d/%dx%d",
			y.hSamp, y.vSamp, cb.hSamp, cb.vSamp, cr.hSamp, cr.vSamp)
	}
	return nil
}

func (d *decoder) parseDQT(p []byte) error {
	for len(p) > 0 {
		prec := p[0] >> 4
		id := p[0] & 0xf
		if prec != 0 {
			return errors.New("jpeg: 16-bit quant tables unsupported")
		}
		if id > 3 || len(p) < 65 {
			return errTruncated
		}
		for i := 0; i < 64; i++ {
			v := int32(p[1+i])
			if v == 0 {
				return errors.New("jpeg: zero quantizer")
			}
			d.quant[id][zigzag[i]] = v
		}
		d.dqtSeen[id] = true
		p = p[65:]
	}
	return nil
}

func (d *decoder) parseDHT(p []byte) error {
	for len(p) > 0 {
		if len(p) < 17 {
			return errTruncated
		}
		class := p[0] >> 4
		id := p[0] & 0xf
		if class > 1 || id > 3 {
			return errors.New("jpeg: bad huffman table id")
		}
		total := 0
		for i := 0; i < 16; i++ {
			total += int(p[1+i])
		}
		if len(p) < 17+total {
			return errTruncated
		}
		seg := p[:17+total]
		tab := &d.dcTab[id]
		if class == 1 {
			tab = &d.acTab[id]
		}
		// Rebuild only when the table actually changed since the last
		// stream this decoder saw; a cached segment was validated when
		// it was built.
		if *tab == nil || !bytes.Equal(d.dhtRaw[class][id], seg) {
			var spec huffSpec
			copy(spec.counts[:], seg[1:17])
			if err := checkHuffSpec(&spec.counts); err != nil {
				return err
			}
			spec.values = append([]byte(nil), seg[17:]...)
			*tab = buildDecHuff(spec)
			d.dhtRaw[class][id] = append(d.dhtRaw[class][id][:0], seg...)
		}
		d.dhtSeen[class][id] = true
		p = p[17+total:]
	}
	return nil
}

func (d *decoder) parseSOS(p []byte) error {
	if len(p) < 1 || int(p[0]) != 3 || len(p) < 1+3*2+3 {
		return errors.New("jpeg: unsupported SOS")
	}
	for i := 0; i < 3; i++ {
		id := p[1+i*2]
		sel := p[2+i*2]
		found := false
		for j := range d.comps {
			if d.comps[j].id == id {
				d.comps[j].dcSel = sel >> 4
				d.comps[j].acSel = sel & 0xf
				found = true
			}
		}
		if !found {
			return errors.New("jpeg: SOS references unknown component")
		}
	}
	return nil
}

// keepCoeff[sub][k] reports whether zig-zag position k lies inside the
// lowest sub x sub frequencies, the only ones reconstruction at sub
// samples per block edge reads. lastKeep[sub] is the largest such k:
// past it a block keeps nothing, so its AC symbols are skipped. Index 0
// keeps nothing: it serves blocks that are entropy-decoded but not
// reconstructed.
var keepCoeff, lastKeep = func() (t [blockSize + 1][64]bool, last [blockSize + 1]int) {
	for sub := range t {
		for k, n := range zigzag {
			t[sub][k] = n%blockSize < sub && n/blockSize < sub
			if t[sub][k] {
				last[sub] = k
			}
		}
	}
	return t, last
}()

// fusedBits is the buffered-bit count at which the block decoder consumes
// a lookup-resolved code and its magnitude in one step: a code of at most
// lookupBits bits plus at most 15 magnitude bits.
const fusedBits = lookupBits + 15

var errACOverflow = errors.New("jpeg: AC coefficient index overflow")

// decodeBlock entropy-decodes one 8x8 block and, when reconstruct is set,
// dequantizes, inverse-transforms at the requested sub-resolution (sub x
// sub samples, sub = 8/scale) and stores the samples into dst at block
// coordinates (bx, by) on the scaled grid.
func (d *decoder) decodeBlock(comp int, reconstruct bool, dst *plane, bx, by, sub int) error {
	if !reconstruct {
		return d.decodeCoeffs(comp, 0)
	}
	if err := d.decodeCoeffs(comp, sub); err != nil {
		return err
	}
	c := &d.comps[comp]
	coeffs := &d.coeffs
	q := &d.quant[c.quantSel]
	d.stats.BlocksIDCT++
	d.stats.IDCTSamples += sub * sub
	if sub == 1 {
		// A 1x1 reconstruction reads only the DC coefficient.
		if by < dst.h && bx < dst.w {
			dst.pix[by*dst.w+bx] = uint8(blockdct.DCSample(d.dcPred[comp] * q[0]))
		}
		return nil
	}
	samples := &d.samples
	if sub == blockSize {
		for i := 0; i < 64; i++ {
			coeffs[i] *= q[i]
		}
		idct(coeffs, samples)
	} else {
		// Only the lowest sub x sub frequencies feed the reduced IDCT.
		for v := 0; v < sub; v++ {
			for u := 0; u < sub; u++ {
				coeffs[v*blockSize+u] *= q[v*blockSize+u]
			}
		}
		idctScaled(coeffs, samples, sub)
	}
	// Store into destination plane (clipped).
	for yy := 0; yy < sub; yy++ {
		py := by*sub + yy
		if py < 0 || py >= dst.h {
			continue
		}
		for xx := 0; xx < sub; xx++ {
			px := bx*sub + xx
			if px < 0 || px >= dst.w {
				continue
			}
			dst.pix[py*dst.w+px] = uint8(samples[yy*sub+xx])
		}
	}
	return nil
}

// decodeCoeffs entropy-decodes one block of component comp, updating its
// DC predictor. For sub > 1 it stores the coefficients of the lowest sub x
// sub frequencies into d.coeffs, the DC coefficient included; AC
// coefficients outside that window are consumed but neither sign-extended
// nor stored. sub 0 and 1 store nothing.
func (d *decoder) decodeCoeffs(comp, sub int) error {
	c := &d.comps[comp]
	br := &d.br
	dc := d.dcTab[c.dcSel]
	if br.n < fusedBits {
		_ = br.fill() // a short buffer takes the decode path, which reports the error
	}
	if e := dc.lookup[br.acc>>(br.n-lookupBits)&(1<<lookupBits-1)]; br.n >= fusedBits && e != 0 && e&0xf0 == 0 {
		// A lookup hit whose size fits the fused step: code and magnitude.
		size := uint(e & 0xf)
		br.n -= uint(e>>8) + size
		d.dcPred[comp] += extendMagnitude(uint16(br.acc>>br.n&(1<<size-1)), uint8(size))
	} else {
		sym, err := dc.decode(br)
		if err != nil {
			return err
		}
		bits, err := br.readBits(sym)
		if err != nil {
			return err
		}
		d.dcPred[comp] += extendMagnitude(bits, sym)
	}
	if sub > 1 {
		for v := 0; v < sub; v++ {
			clear(d.coeffs[v*blockSize : v*blockSize+sub])
		}
		d.coeffs[0] = d.dcPred[comp]
	}
	return d.decodeAC(d.acTab[c.acSel], &keepCoeff[sub], lastKeep[sub])
}

// decodeAC consumes one block's AC symbols through end-of-block or
// position 63, storing each coefficient keep marks into d.coeffs. Up to
// zig-zag index last it resolves one symbol per step: a lookup hit with
// fusedBits buffered consumes the code and its magnitude at once, and
// decode plus readBits serve long codes and the stream tail. Past last
// nothing is kept, so the skip table consumes every whole symbol of the
// next skipBits bits per lookup while the block has room for its advance.
// The two phases are separate loops, each with its own fallback: one loop
// branching on k > last per symbol decoded photo-like 1080p streams 4-10 %
// slower at scales 4 and 8.
func (d *decoder) decodeAC(ac *decHuff, keep *[64]bool, last int) error {
	br := &d.br
	coeffs := &d.coeffs
	k := 1
	for k <= last {
		if br.n < fusedBits {
			_ = br.fill() // a short buffer takes the decode path, which reports the error
		}
		if br.n >= fusedBits {
			if e := ac.lookup[br.acc>>(br.n-lookupBits)&(1<<lookupBits-1)]; e != 0 {
				br.n -= uint(e >> 8)
				run, size := int(e>>4&0xf), uint(e&0xf)
				if size == 0 {
					if run != 15 {
						return nil // EOB
					}
					k += 16 // ZRL
					continue
				}
				if k += run; k > 63 {
					return errACOverflow
				}
				br.n -= size
				if keep[k] {
					coeffs[zigzag[k]] = extendMagnitude(uint16(br.acc>>br.n&(1<<size-1)), uint8(size))
				}
				k++
				continue
			}
		}
		sym, err := ac.decode(br)
		if err != nil {
			return err
		}
		run, size := int(sym>>4), sym&0xf
		if size == 0 {
			if run != 15 {
				return nil // EOB
			}
			k += 16 // ZRL
			continue
		}
		if k += run; k > 63 {
			return errACOverflow
		}
		bits, err := br.readBits(size)
		if err != nil {
			return err
		}
		if keep[k] {
			coeffs[zigzag[k]] = extendMagnitude(bits, size)
		}
		k++
	}
	for k < 64 {
		if br.n < skipBits {
			_ = br.fill()
		}
		if br.n >= skipBits {
			e := ac.skip[br.acc>>(br.n-skipBits)&(1<<skipBits-1)]
			if adv := int(e >> skipAdvShift & 0xff); e&0xf != 0 && k+adv < 64 {
				br.n -= uint(e & 0xf)
				if e&skipEOB != 0 {
					return nil
				}
				k += adv
				continue
			}
		}
		sym, err := ac.decode(br)
		if err != nil {
			return err
		}
		run, size := int(sym>>4), sym&0xf
		if size == 0 {
			if run != 15 {
				return nil // EOB
			}
			k += 16 // ZRL
			continue
		}
		if k += run; k > 63 {
			return errACOverflow
		}
		if _, err := br.readBits(size); err != nil {
			return err
		}
		k++
	}
	return nil
}

// checkScanTables reports an error unless the current stream defined every
// Huffman and quantization table its scan references.
func (d *decoder) checkScanTables() error {
	for i := range d.comps {
		c := &d.comps[i]
		if c.dcSel > 3 || c.acSel > 3 ||
			!d.dhtSeen[0][c.dcSel] || !d.dhtSeen[1][c.acSel] ||
			d.dcTab[c.dcSel] == nil || d.acTab[c.acSel] == nil {
			return errors.New("jpeg: scan references missing huffman table")
		}
		if !d.dqtSeen[c.quantSel] {
			return errors.New("jpeg: scan references missing quant table")
		}
	}
	return nil
}

// buildSkipTables builds the skip tables of the scan's AC tables that lack
// one. decodeAC reads them whenever a block keeps fewer than all 64
// coefficients: at every scale above 1 and outside an ROI. A full decode
// never does, so it does not pay for building them.
func (d *decoder) buildSkipTables() {
	for i := range d.comps {
		if ac := d.acTab[d.comps[i].acSel]; ac.skip == nil {
			ac.buildSkip()
		}
	}
}

// decodeScan entropy-decodes MCUs and reconstructs the requested region at
// the requested scale.
func (d *decoder) decodeScan(opts DecodeOptions) (*img.Image, img.Rect, error) {
	scale := opts.Scale
	if scale == 0 {
		scale = 1
	}
	switch scale {
	case 1, 2, 4, 8:
	default:
		return nil, img.Rect{}, fmt.Errorf("jpeg: unsupported decode scale 1/%d (want 1, 2, 4 or 8)", scale)
	}
	sub := blockSize / scale // reconstructed samples per block edge

	is420 := d.comps[0].hSamp == 2
	mcuW, mcuH := blockSize, blockSize
	if is420 {
		mcuW, mcuH = 16, 16
	}
	mcusX := (d.width + mcuW - 1) / mcuW
	mcusY := (d.height + mcuH - 1) / mcuH
	blocksPerMCU := 3
	if is420 {
		blocksPerMCU = 6
	}
	d.stats.MCUsTotal = mcusX * mcusY
	d.stats.BlocksTotal = d.stats.MCUsTotal * blocksPerMCU

	// Determine the reconstruction region (MCU-aligned, full-resolution
	// coordinates) and stop row.
	region := img.Rect{X0: 0, Y0: 0, X1: d.width, Y1: d.height}
	if opts.ROI != nil {
		region = AlignedRegion(*opts.ROI, d.width, d.height, mcuW)
		if region.Empty() {
			return nil, img.Rect{}, errors.New("jpeg: ROI outside image")
		}
	} else if opts.EarlyStopRow > 0 && opts.EarlyStopRow < d.height {
		region.Y1 = opts.EarlyStopRow
		region = region.AlignTo(mcuH, d.width, d.height)
	}
	lastMCURow := (region.Y1 - 1) / mcuH
	mcuX0 := region.X0 / mcuW
	mcuX1 := (region.X1 - 1) / mcuW

	// Planar buffers sized to the region at the output scale: each 8x8
	// block contributes sub x sub samples.
	rw, rh := region.W(), region.H()
	blocksX := ((rw + mcuW - 1) / mcuW) * mcuW / blockSize
	blocksY := ((rh + mcuH - 1) / mcuH) * mcuH / blockSize
	lumaW := blocksX * sub
	lumaH := blocksY * sub
	cw, ch := lumaW, lumaH
	if is420 {
		cw, ch = lumaW/2, lumaH/2
	}
	yPlane := d.sizedPlane(0, lumaW, lumaH)
	cbPlane := d.sizedPlane(1, cw, ch)
	crPlane := d.sizedPlane(2, cw, ch)

	if err := d.checkScanTables(); err != nil {
		return nil, img.Rect{}, err
	}
	if sub < blockSize || opts.ROI != nil {
		d.buildSkipTables()
	}

	d.br = bitReader{data: d.data[d.scanStart:]}
	d.dcPred = [3]int32{}

	// Restart-segment fast path: when the stream has restart intervals and
	// the ROI starts below the top, whole segments before the first needed
	// MCU row are skipped with a byte scan instead of Huffman decoding.
	startIdx := 0
	endIdx := (lastMCURow + 1) * mcusX
	if d.restartInterval > 0 && region.Y0 > 0 {
		firstNeeded := (region.Y0 / mcuH) * mcusX
		if segs := firstNeeded / d.restartInterval; segs > 0 {
			skipped, err := d.br.skipRestartSegments(segs)
			if err != nil {
				return nil, img.Rect{}, err
			}
			startIdx = segs * d.restartInterval
			d.stats.MCUsSkippedEntropy = startIdx
			d.stats.EntropyBytesSkipped = skipped
		}
	}

scan:
	for idx := startIdx; idx < endIdx; idx++ {
		if d.restartInterval > 0 && idx > startIdx && idx%d.restartInterval == 0 {
			if err := d.br.syncToRestart(); err != nil {
				return nil, img.Rect{}, err
			}
			d.dcPred = [3]int32{}
		}
		my := idx / mcusX
		mx := idx % mcusX
		reconstruct := my*mcuH >= region.Y0 && mx >= mcuX0 && mx <= mcuX1
		// Block coordinates relative to the region's plane origin.
		relMX := mx - mcuX0
		relMY := my - region.Y0/mcuH
		var err error
		if is420 {
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					err = d.decodeBlock(0, reconstruct, yPlane, relMX*2+dx, relMY*2+dy, sub)
					if err != nil {
						break scan
					}
				}
			}
			if err = d.decodeBlock(1, reconstruct, cbPlane, relMX, relMY, sub); err != nil {
				break scan
			}
			if err = d.decodeBlock(2, reconstruct, crPlane, relMX, relMY, sub); err != nil {
				break scan
			}
		} else {
			if err = d.decodeBlock(0, reconstruct, yPlane, relMX, relMY, sub); err != nil {
				break scan
			}
			if err = d.decodeBlock(1, reconstruct, cbPlane, relMX, relMY, sub); err != nil {
				break scan
			}
			if err = d.decodeBlock(2, reconstruct, crPlane, relMX, relMY, sub); err != nil {
				break scan
			}
		}
		d.stats.MCUsEntropyDecoded++
	}
	if d.stats.MCUsEntropyDecoded < endIdx-startIdx {
		return nil, img.Rect{}, errTruncated
	}
	d.stats.EntropyBytesRead = d.br.bytesRead

	// Color conversion for the region at the output scale. A scaled luma
	// sample (x, y) originates from the same block grid position as the
	// corresponding scaled chroma sample, so the subsampling relation is
	// unchanged: 4:2:0 chroma still upsamples 2x relative to luma.
	ow, oh := img.ScaledDims(rw, rh, scale)
	out := opts.Dst
	if out == nil {
		out = img.New(ow, oh)
	} else {
		out.Reset(ow, oh)
	}
	d.stats.PixelsColorConverted = ow * oh
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			yy := int(yPlane.pix[y*yPlane.w+x])
			var cbv, crv int
			if is420 {
				cbv = int(cbPlane.at(x/2, y/2))
				crv = int(crPlane.at(x/2, y/2))
			} else {
				cbv = int(cbPlane.pix[y*cbPlane.w+x])
				crv = int(crPlane.pix[y*crPlane.w+x])
			}
			r := float64(yy) + 1.402*float64(crv-128)
			g := float64(yy) - 0.344136*float64(cbv-128) - 0.714136*float64(crv-128)
			b := float64(yy) + 1.772*float64(cbv-128)
			i := (y*ow + x) * 3
			out.Pix[i] = img.ClampF(r)
			out.Pix[i+1] = img.ClampF(g)
			out.Pix[i+2] = img.ClampF(b)
		}
	}
	return out, region, nil
}

package vid

import "smol/internal/img"

// plane is a single padded 8-bit channel.
type plane struct {
	w, h int
	pix  []uint8
}

func newPlane(w, h int) *plane {
	return &plane{w: w, h: h, pix: make([]uint8, w*h)}
}

func (p *plane) clone() *plane {
	out := &plane{w: p.w, h: p.h, pix: make([]uint8, len(p.pix))}
	copy(out.pix, p.pix)
	return out
}

// at reads with edge clamping.
func (p *plane) at(x, y int) uint8 {
	if x < 0 {
		x = 0
	} else if x >= p.w {
		x = p.w - 1
	}
	if y < 0 {
		y = 0
	} else if y >= p.h {
		y = p.h - 1
	}
	return p.pix[y*p.w+x]
}

// frame is a 4:2:0 planar YCbCr frame padded to macroblock multiples.
type frame struct {
	y, cb, cr *plane
}

func newFrame(padW, padH int) *frame {
	return &frame{
		y:  newPlane(padW, padH),
		cb: newPlane(padW/2, padH/2),
		cr: newPlane(padW/2, padH/2),
	}
}

func (f *frame) clone() *frame {
	return &frame{y: f.y.clone(), cb: f.cb.clone(), cr: f.cr.clone()}
}

// rgbToFrame converts an RGB image to padded 4:2:0 planes. Padding uses edge
// replication.
func rgbToFrame(m *img.Image, padW, padH int) *frame {
	f := newFrame(padW, padH)
	// Full-resolution luma and chroma first.
	cbFull := newPlane(padW, padH)
	crFull := newPlane(padW, padH)
	for y := 0; y < padH; y++ {
		sy := y
		if sy >= m.H {
			sy = m.H - 1
		}
		for x := 0; x < padW; x++ {
			sx := x
			if sx >= m.W {
				sx = m.W - 1
			}
			i := (sy*m.W + sx) * 3
			r := float64(m.Pix[i])
			g := float64(m.Pix[i+1])
			b := float64(m.Pix[i+2])
			f.y.pix[y*padW+x] = img.ClampF(0.299*r + 0.587*g + 0.114*b)
			cbFull.pix[y*padW+x] = img.ClampF(128 - 0.168736*r - 0.331264*g + 0.5*b)
			crFull.pix[y*padW+x] = img.ClampF(128 + 0.5*r - 0.418688*g - 0.081312*b)
		}
	}
	// 2x2 box downsample chroma.
	cw := padW / 2
	for y := 0; y < padH/2; y++ {
		for x := 0; x < cw; x++ {
			s := int(cbFull.pix[(2*y)*padW+2*x]) + int(cbFull.pix[(2*y)*padW+2*x+1]) +
				int(cbFull.pix[(2*y+1)*padW+2*x]) + int(cbFull.pix[(2*y+1)*padW+2*x+1])
			f.cb.pix[y*cw+x] = uint8((s + 2) / 4)
			s = int(crFull.pix[(2*y)*padW+2*x]) + int(crFull.pix[(2*y)*padW+2*x+1]) +
				int(crFull.pix[(2*y+1)*padW+2*x]) + int(crFull.pix[(2*y+1)*padW+2*x+1])
			f.cr.pix[y*cw+x] = uint8((s + 2) / 4)
		}
	}
	return f
}

// frameToRGB converts the visible wxh region back to interleaved RGB.
func frameToRGB(f *frame, w, h int) *img.Image {
	return frameToRGBInto(f, w, h, nil)
}

// frameToRGBInto converts into dst, reusing it when the dimensions match
// and allocating a fresh image otherwise (nil is always valid).
func frameToRGBInto(f *frame, w, h int, dst *img.Image) *img.Image {
	m := dst
	if m == nil || m.W != w || m.H != h {
		m = img.New(w, h)
	}
	// Chroma planes are padW/2 x padH/2 with padW >= w and padH >= h, so
	// column x/2 and row y/2 are always inside them.
	for y := 0; y < h; y++ {
		luma := f.y.pix[y*f.y.w:][:w]
		cbRow := f.cb.pix[(y/2)*f.cb.w:][:f.cb.w]
		crRow := f.cr.pix[(y/2)*f.cr.w:][:f.cr.w]
		out := m.Pix[y*w*3:][:w*3]
		for x, l := range luma {
			yy := float64(l)
			cb := float64(cbRow[x/2]) - 128
			cr := float64(crRow[x/2]) - 128
			px := out[x*3:][:3]
			px[0] = img.ClampF(yy + 1.402*cr)
			px[1] = img.ClampF(yy - 0.344136*cb - 0.714136*cr)
			px[2] = img.ClampF(yy + 1.772*cb)
		}
	}
	return m
}

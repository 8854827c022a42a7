package nn

import (
	"fmt"
	"math"
	"sync"

	"smol/internal/tensor"
)

// Compiled inference path. Compile lowers a trained Model into an
// immutable InferencePlan: inference-mode BatchNorm2D layers are folded
// into the preceding convolution's weights, bias / residual add / ReLU are
// fused into the GEMM epilogue, and every convolution runs as a single
// GEMM over the whole batch. On the SIMD tiers that GEMM is an implicit
// GEMM (tensor.GEMMPackedConv): the kernel reads its input panels in place
// or gathers them straight from the activation, so no im2col matrix is
// ever written. The
// portable tier writes the batched im2col matrix (tensor.Im2ColBatch) and
// runs the blocked tensor.GEMMPackedRaw on it; the two tiers give
// bit-identical logits. Activations live in three fixed "registers" of a
// per-call arena (recycled through a sync.Pool), so a warm forward
// performs approximately zero heap allocations and any number of
// goroutines can run one plan concurrently.
//
// Model.Forward remains the training/reference path and the equivalence
// oracle; the compiled plan carries its own (folded) copies of all weights
// and no mutable layer caches.

// opKind enumerates the fused op vocabulary of a compiled plan.
type opKind int

const (
	// opConv is a convolution with folded batch-norm and a fused
	// bias/add/ReLU epilogue, executed as one batched (implicit) GEMM.
	opConv opKind = iota
	// opAvgPool is global average pooling, CNHW -> (N, C).
	opAvgPool
	// opLinear is the terminal fully connected layer writing logits.
	opLinear
)

// planOp is one fused step of the compiled graph. src/dst/add name
// activation registers in the arena; src == -1 reads the caller's input
// tensor, add == -1 means no residual addend.
type planOp struct {
	kind opKind

	// Convolution geometry (opConv).
	inC, outC, k, stride, pad int
	// w is the folded weight matrix: (outC x inC*k*k) for opConv,
	// (out x in) for opLinear. bias is the folded bias (len outC / out).
	w    []float32
	bias []float32
	// wp is w pre-packed at compile time into the GEMM microkernel's
	// MR-interleaved row-panel layout (opConv only), so the per-call
	// forward never re-packs the constant operand.
	wp *tensor.PackedA
	// relu fuses a ReLU into the epilogue.
	relu bool

	src, dst, add int

	// Linear dimensions (opLinear).
	in, out int
}

// InferencePlan is a compiled, immutable, reentrant forward pass. Create
// one with Compile; it is safe for concurrent use.
type InferencePlan struct {
	inC     int // input channels expected by the first conv
	classes int
	ops     []planOp

	arenas sync.Pool // of *inferArena
}

// inferArena holds the recycled per-call activation memory: three
// equally sized registers (enough for the residual dataflow), the im2col
// column buffer (portable tier only; the AVX2 tier never allocates it),
// and the logits scratch. Buffers grow on demand and are reused across
// calls via the plan's pool.
type inferArena struct {
	regs   [3][]float32
	col    []float32
	logits []float32
}

// Compile lowers m into an InferencePlan. The model must be a sequential
// inference graph of the shapes NewResNet produces: Conv2D (optionally
// followed by BatchNorm2D and/or ReLU), Residual blocks, GlobalAvgPool,
// and a terminal Linear. Any other layer kind is rejected with an error,
// in which case callers should fall back to Model.Forward.
func Compile(m *Model) (*InferencePlan, error) {
	if m == nil || len(m.Layers) == 0 {
		return nil, fmt.Errorf("nn: Compile: empty model")
	}
	p := &InferencePlan{inC: -1, classes: -1}
	cur := -1 // register holding the current activation; -1 = external input
	i := 0
	for i < len(m.Layers) {
		if p.classes >= 0 {
			return nil, fmt.Errorf("nn: Compile: layer %d after terminal Linear", i)
		}
		switch l := m.Layers[i].(type) {
		case *Conv2D:
			var bn *BatchNorm2D
			relu := false
			j := i + 1
			if j < len(m.Layers) {
				if b, ok := m.Layers[j].(*BatchNorm2D); ok {
					bn = b
					j++
				}
			}
			if j < len(m.Layers) {
				if _, ok := m.Layers[j].(*ReLU); ok {
					relu = true
					j++
				}
			}
			if p.inC < 0 {
				p.inC = l.InC
			}
			dst := otherReg(cur, cur)
			p.ops = append(p.ops, foldConv(l, bn, relu, cur, dst, -1))
			cur = dst
			i = j
		case *Residual:
			if cur < 0 {
				return nil, fmt.Errorf("nn: Compile: Residual cannot be the first layer")
			}
			// y1 = relu(bn1(conv1(x)))
			t1 := otherReg(cur, cur)
			p.ops = append(p.ops, foldConv(l.conv1, l.bn1, true, cur, t1, -1))
			if l.proj != nil {
				// sc = projBN(proj(x)); out = relu(bn2(conv2(y1)) + sc),
				// overwriting x's register (its value is dead after proj).
				t2 := otherReg(cur, t1)
				p.ops = append(p.ops, foldConv(l.proj, l.projBN, false, cur, t2, -1))
				p.ops = append(p.ops, foldConv(l.conv2, l.bn2, true, t1, cur, t2))
			} else {
				// out = relu(bn2(conv2(y1)) + x)
				t2 := otherReg(cur, t1)
				p.ops = append(p.ops, foldConv(l.conv2, l.bn2, true, t1, t2, cur))
				cur = t2
			}
			i++
		case *GlobalAvgPool:
			if cur < 0 {
				return nil, fmt.Errorf("nn: Compile: GlobalAvgPool cannot be the first layer")
			}
			dst := otherReg(cur, cur)
			p.ops = append(p.ops, planOp{kind: opAvgPool, src: cur, dst: dst, add: -1})
			cur = dst
			i++
		case *Linear:
			if cur < 0 {
				return nil, fmt.Errorf("nn: Compile: Linear cannot be the first layer")
			}
			w := make([]float32, len(l.W.Data))
			copy(w, l.W.Data)
			bias := make([]float32, len(l.B.Data))
			copy(bias, l.B.Data)
			p.ops = append(p.ops, planOp{kind: opLinear, src: cur, dst: -1, add: -1,
				w: w, bias: bias, in: l.In, out: l.Out})
			p.classes = l.Out
			i++
		default:
			return nil, fmt.Errorf("nn: Compile: unsupported layer %T", l)
		}
	}
	if p.classes < 0 {
		return nil, fmt.Errorf("nn: Compile: model has no terminal Linear layer")
	}
	if p.inC < 0 {
		return nil, fmt.Errorf("nn: Compile: model has no convolution")
	}
	return p, nil
}

// otherReg returns a register index distinct from both arguments.
func otherReg(a, b int) int {
	for r := 0; r < 3; r++ {
		if r != a && r != b {
			return r
		}
	}
	panic("nn: no free register")
}

// foldConv copies a convolution's weights, folding the (inference-mode)
// batch-norm transform into them: with s_c = gamma_c / sqrt(var_c + eps),
// W'[c,...] = s_c * W[c,...] and b'_c = s_c*(b_c - mean_c) + beta_c, so
// bn(conv(x)) == conv'(x) exactly (up to float rounding).
func foldConv(c *Conv2D, bn *BatchNorm2D, relu bool, src, dst, add int) planOp {
	ckk := c.InC * c.K * c.K
	w := make([]float32, c.OutC*ckk)
	copy(w, c.W.Data)
	bias := make([]float32, c.OutC)
	copy(bias, c.B.Data)
	if bn != nil {
		for oc := 0; oc < c.OutC; oc++ {
			invStd := float32(1 / math.Sqrt(float64(bn.RunVar.Data[oc])+float64(bn.Eps)))
			s := bn.Gamma.Data[oc] * invStd
			row := w[oc*ckk : (oc+1)*ckk]
			for i := range row {
				row[i] *= s
			}
			bias[oc] = s*(bias[oc]-bn.RunMean.Data[oc]) + bn.Beta.Data[oc]
		}
	}
	return planOp{kind: opConv, inC: c.InC, outC: c.OutC, k: c.K, stride: c.Stride,
		pad: c.Pad, w: w, wp: tensor.PackA(c.OutC, ckk, w), bias: bias, relu: relu,
		src: src, dst: dst, add: add}
}

// regGeom is the runtime geometry of one activation register. Geometry is
// tracked per register, not sequentially: a projection shortcut reads the
// block input's dimensions after the main path has already strided down.
type regGeom struct{ c, h, w int }

// inGeom resolves the input geometry of an op: the caller's tensor for
// src < 0, otherwise whatever was last written to the source register.
func inGeom(op planOp, geoms *[3]regGeom, inC, h, w int) regGeom {
	if op.src < 0 {
		return regGeom{c: inC, h: h, w: w}
	}
	return geoms[op.src]
}

// footprint walks the op list for an (n, h, w) input and returns the
// element counts the arena needs: the largest register and, when the
// forward runs on the portable tier (simd false), the largest im2col
// column matrix.
func (p *InferencePlan) footprint(n, h, w int, simd bool) (regElems, colElems int) {
	var geoms [3]regGeom
	for _, op := range p.ops {
		switch op.kind {
		case opConv:
			g := inGeom(op, &geoms, p.inC, h, w)
			outH := (g.h+2*op.pad-op.k)/op.stride + 1
			outW := (g.w+2*op.pad-op.k)/op.stride + 1
			if e := op.inC * op.k * op.k * n * outH * outW; !simd && e > colElems {
				colElems = e
			}
			if e := op.outC * n * outH * outW; e > regElems {
				regElems = e
			}
			geoms[op.dst] = regGeom{c: op.outC, h: outH, w: outW}
		case opAvgPool:
			g := geoms[op.src]
			if e := n * g.c; e > regElems {
				regElems = e
			}
			geoms[op.dst] = regGeom{c: g.c, h: 1, w: 1}
		case opLinear:
		}
	}
	return regElems, colElems
}

// getArena fetches a recycled arena sized for an (n, h, w) batch on the
// given kernel tier. The caller owns the arena and must Put it back once
// the forward finishes.
//
//smol:owns
//smol:noalloc
func (p *InferencePlan) getArena(n, h, w int, simd bool) *inferArena {
	ar, _ := p.arenas.Get().(*inferArena)
	if ar == nil {
		ar = &inferArena{} //smol:coldpath first call on this P
	}
	regElems, colElems := p.footprint(n, h, w, simd)
	for i := range ar.regs {
		if cap(ar.regs[i]) < regElems {
			ar.regs[i] = make([]float32, regElems) //smol:coldpath grow on shape change
		}
	}
	if cap(ar.col) < colElems {
		ar.col = make([]float32, colElems) //smol:coldpath grow on shape change
	}
	if cap(ar.logits) < n*p.classes {
		ar.logits = make([]float32, n*p.classes) //smol:coldpath grow on shape change
	}
	return ar
}

// run executes the plan for x (N, C, H, W), leaving logits in
// ar.logits[:N*classes]. Intermediate activations use the channel-major
// CNHW layout (channel plane c of sample i starts at (c*N+i)*H*W), which
// lets each conv be one contiguous batched GEMM. simd selects the conv
// lowering and must be the tier ar was sized for: the implicit GEMM, or
// im2col into ar.col + GEMM. It is read once per forward, so a
// concurrent SetF32SIMD never leaves a conv without its column buffer.
//
// When stats is non-nil (len 1+len(ops)) the pass additionally records
// max-abs activation ranges — stats[0] for the input tensor, stats[1+i]
// for op i's output register — which Calibrate folds into int8 scales.
//
//smol:noalloc
func (p *InferencePlan) run(x *tensor.Tensor, ar *inferArena, simd bool, stats []float32) {
	if len(x.Shape) != 4 || x.Shape[1] != p.inC {
		//smol:coldpath shape mismatch is a caller bug
		panic(fmt.Sprintf("nn: InferencePlan input shape %v, want (N,%d,H,W)", x.Shape, p.inC))
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	if stats != nil {
		stats[0] = maxAbs32(x.Data[:n*p.inC*h*w])
	}
	var geoms [3]regGeom
	for idx, op := range p.ops {
		switch op.kind {
		case opConv:
			g := inGeom(op, &geoms, p.inC, h, w)
			outH := (g.h+2*op.pad-op.k)/op.stride + 1
			outW := (g.w+2*op.pad-op.k)/op.stride + 1
			total := n * outH * outW
			// External input: NCHW strides; arena register: CNHW strides.
			src := tensor.ConvSrc{Data: x.Data, N: n, C: op.inC, H: g.h, W: g.w,
				SampleStride: op.inC * g.h * g.w, ChanStride: g.h * g.w,
				K: op.k, Stride: op.stride, Pad: op.pad}
			if op.src >= 0 {
				src.Data, src.SampleStride, src.ChanStride = ar.regs[op.src], g.h*g.w, n*g.h*g.w
			}
			ep := tensor.Epilogue{RowBias: op.bias, ReLU: op.relu}
			if op.add >= 0 {
				ep.Add = ar.regs[op.add][:op.outC*total]
			}
			dst := ar.regs[op.dst][:op.outC*total]
			if simd {
				tensor.GEMMPackedConv(op.wp, src, dst, ep)
			} else {
				col := ar.col[:op.inC*op.k*op.k*total]
				tensor.Im2ColBatch(src.Data, n, op.inC, g.h, g.w, src.SampleStride, src.ChanStride,
					op.k, op.k, op.stride, op.pad, col)
				tensor.GEMMPackedRaw(op.wp, total, col, dst, ep)
			}
			if stats != nil {
				stats[1+idx] = maxAbs32(ar.regs[op.dst][:op.outC*total])
			}
			geoms[op.dst] = regGeom{c: op.outC, h: outH, w: outW}
		case opAvgPool:
			g := geoms[op.src]
			spatial := g.h * g.w
			src := ar.regs[op.src]
			dst := ar.regs[op.dst]
			for c := 0; c < g.c; c++ {
				for i := 0; i < n; i++ {
					plane := src[(c*n+i)*spatial : (c*n+i+1)*spatial]
					var s float32
					for _, v := range plane {
						s += v
					}
					dst[i*g.c+c] = s / float32(spatial)
				}
			}
			geoms[op.dst] = regGeom{c: g.c, h: 1, w: 1}
		case opLinear:
			src := ar.regs[op.src][:n*op.in]
			logits := ar.logits[:n*op.out]
			for i := 0; i < n; i++ {
				xrow := src[i*op.in : (i+1)*op.in]
				for j := 0; j < op.out; j++ {
					wrow := op.w[j*op.in : (j+1)*op.in]
					var s float32
					for pi, v := range xrow {
						s += v * wrow[pi]
					}
					logits[i*op.out+j] = s + op.bias[j]
				}
			}
		}
	}
}

// Forward runs the compiled stack and returns the logits as a freshly
// allocated (N, classes) tensor. Safe for concurrent use.
func (p *InferencePlan) Forward(x *tensor.Tensor) *tensor.Tensor {
	n := x.Shape[0]
	out := tensor.New(n, p.classes)
	simd := tensor.F32SIMDActive()
	ar := p.getArena(n, x.Shape[2], x.Shape[3], simd)
	p.run(x, ar, simd, nil)
	copy(out.Data, ar.logits[:n*p.classes])
	p.arenas.Put(ar)
	return out
}

// Predict returns the argmax class per sample.
func (p *InferencePlan) Predict(x *tensor.Tensor) []int {
	preds := make([]int, x.Shape[0])
	p.PredictInto(x, preds)
	return preds
}

// PredictInto writes the argmax class per sample into preds (len N). A
// warm call allocates nothing: activations, the portable tier's im2col
// buffer, and the logits scratch all come from the plan's recycled arenas.
//
//smol:noalloc
func (p *InferencePlan) PredictInto(x *tensor.Tensor, preds []int) {
	n := x.Shape[0]
	if len(preds) != n {
		//smol:coldpath length mismatch is a caller bug
		panic(fmt.Sprintf("nn: PredictInto preds length %d, want %d", len(preds), n))
	}
	simd := tensor.F32SIMDActive()
	ar := p.getArena(n, x.Shape[2], x.Shape[3], simd)
	p.run(x, ar, simd, nil)
	k := p.classes
	for i := 0; i < n; i++ {
		row := ar.logits[i*k : (i+1)*k]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		preds[i] = best
	}
	p.arenas.Put(ar)
}

// Classes returns the classifier output width.
func (p *InferencePlan) Classes() int { return p.classes }

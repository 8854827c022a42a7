package nn

import (
	"fmt"
	"sync"

	"smol/internal/tensor"
)

// Quantized inference tier. Quantize lowers a compiled InferencePlan into
// a QuantizedPlan that runs every convolution as int8 im2col + GEMMInt8
// with exact int32 accumulation and a fused saturating requantize epilogue.
// Weights use symmetric per-output-channel scales (computed deterministically
// from the folded f32 weights); activations use symmetric per-tensor scales
// measured by streaming representative inputs — the zoo's held-out split —
// through the f32 plan (Calibrate). Global average pooling dequantizes back
// to f32 and the terminal Linear stays full precision, so the tiny logits
// head costs nothing in accuracy.
//
// Because accumulation is integer-exact, a QuantizedPlan is deterministic
// across worker counts and kernel implementations; drift versus the f32
// plan comes only from the quantization itself and is bounded by the tests
// and measured per zoo entry.

// QuantCalibration carries the measured activation ranges of one compiled
// plan, lowered to symmetric int8 scales. It is the only state beyond the
// f32 weights needed to rebuild a QuantizedPlan bit-identically, so zoo
// serialization persists exactly this.
type QuantCalibration struct {
	// InputScale quantizes the external input: q = round(x / InputScale).
	InputScale float32
	// ActScales holds one output scale per compiled plan op, in op order;
	// entries for non-conv ops are zero.
	ActScales []float32
}

// qplanOp is one step of the quantized graph, mirroring planOp. Conv ops
// carry int8-range weights widened to int16 plus the scale chain; avgpool
// dequantizes its int8 source into the f32 pool buffer; linear runs in f32.
type qplanOp struct {
	kind opKind

	inC, outC, k, stride, pad int
	// w is the quantized folded weight matrix (outC x inC*k*k), values in
	// [-127, 127] widened to int16 for the dual-MAC kernel.
	w []int16
	// rowScale dequantizes row oc's int32 accumulator: inScale * wScale[oc].
	rowScale []float32
	// bias is the folded f32 bias, applied after dequantization.
	bias []float32
	relu bool

	src, dst, add int

	// outScale requantizes this op's output register; addScale dequantizes
	// the residual register; srcScale dequantizes an avgpool source.
	outScale, addScale, srcScale float32

	// Linear weights stay f32 (opLinear).
	wf, biasf []float32
	in, out   int
}

// QuantizedPlan is a compiled int8 forward pass. Create one with Quantize;
// it is immutable and safe for concurrent use. Warm calls allocate nothing:
// all intermediate state lives in recycled byte-sized arenas.
type QuantizedPlan struct {
	inC     int
	classes int
	inScale float32
	ops     []qplanOp

	arenas sync.Pool // of *qArena
}

// qArena is the recycled per-call memory of a quantized forward: int8
// activation registers and im2col buffer (~4x smaller than the f32 arena),
// the int32 accumulator scratch, the quantized copy of the external input,
// and the small f32 tail (pooled features, logits).
type qArena struct {
	regs   [3][]int8
	col    []int8
	acc    []int32
	qin    []int8
	pool   []float32
	logits []float32
}

// Calibrate streams inputs through the f32 plan and returns int8 scales
// covering the observed activation ranges (max-abs over all inputs, per
// op). Use the zoo's held-out split, resized to the plan's resolution;
// inputs outside the calibrated range later saturate at +-127.
func (p *InferencePlan) Calibrate(inputs []*tensor.Tensor) (QuantCalibration, error) {
	if len(inputs) == 0 {
		return QuantCalibration{}, fmt.Errorf("nn: Calibrate: no calibration inputs")
	}
	maxIn := float32(0)
	maxAct := make([]float32, len(p.ops))
	stats := make([]float32, 1+len(p.ops))
	for _, x := range inputs {
		if len(x.Shape) != 4 || x.Shape[1] != p.inC {
			return QuantCalibration{}, fmt.Errorf("nn: Calibrate: input shape %v, want (N,%d,H,W)", x.Shape, p.inC)
		}
		for i := range stats {
			stats[i] = 0
		}
		simd := tensor.F32SIMDActive()
		ar := p.getArena(x.Shape[0], x.Shape[2], x.Shape[3], simd)
		p.run(x, ar, simd, stats)
		p.arenas.Put(ar)
		if stats[0] > maxIn {
			maxIn = stats[0]
		}
		for i := range maxAct {
			if stats[1+i] > maxAct[i] {
				maxAct[i] = stats[1+i]
			}
		}
	}
	cal := QuantCalibration{InputScale: maxIn / 127, ActScales: make([]float32, len(p.ops))}
	if !(cal.InputScale > 0) {
		cal.InputScale = 1 // all-zero calibration input: any scale maps 0 -> 0
	}
	for i := range cal.ActScales {
		cal.ActScales[i] = maxAct[i] / 127
	}
	return cal, nil
}

// Quantize lowers a compiled plan into its int8 twin using the given
// activation calibration. Weight scales are recomputed deterministically
// from the plan's folded f32 weights (symmetric per-output-channel max-abs
// over 127; all-zero channels get scale 1 so no division blows up), which
// is why persisting only QuantCalibration round-trips the plan exactly.
func Quantize(p *InferencePlan, cal QuantCalibration) (*QuantizedPlan, error) {
	if len(cal.ActScales) != len(p.ops) {
		return nil, fmt.Errorf("nn: Quantize: calibration covers %d ops, plan has %d",
			len(cal.ActScales), len(p.ops))
	}
	if !(cal.InputScale > 0) {
		return nil, fmt.Errorf("nn: Quantize: non-positive input scale %v", cal.InputScale)
	}
	q := &QuantizedPlan{inC: p.inC, classes: p.classes, inScale: cal.InputScale}
	var regScale [3]float32
	for idx, op := range p.ops {
		switch op.kind {
		case opConv:
			inS := cal.InputScale
			if op.src >= 0 {
				inS = regScale[op.src]
			}
			if !(inS > 0) {
				return nil, fmt.Errorf("nn: Quantize: op %d reads register %d with no scale", idx, op.src)
			}
			outS := cal.ActScales[idx]
			if !(outS > 0) {
				outS = 1 // dead (all-zero) activation: any scale maps 0 -> 0
			}
			ckk := op.inC * op.k * op.k
			qop := qplanOp{kind: opConv, inC: op.inC, outC: op.outC, k: op.k,
				stride: op.stride, pad: op.pad,
				w:        make([]int16, len(op.w)),
				rowScale: make([]float32, op.outC),
				bias:     op.bias, relu: op.relu,
				src: op.src, dst: op.dst, add: op.add, outScale: outS}
			for oc := 0; oc < op.outC; oc++ {
				row := op.w[oc*ckk : (oc+1)*ckk]
				ws := maxAbs32(row) / 127
				if !(ws > 0) {
					ws = 1 // all-zero output channel: quantized row stays zero
				}
				quantizeWeightRow(row, 1/ws, qop.w[oc*ckk:(oc+1)*ckk])
				qop.rowScale[oc] = inS * ws
			}
			if op.add >= 0 {
				qop.addScale = regScale[op.add]
				if !(qop.addScale > 0) {
					return nil, fmt.Errorf("nn: Quantize: op %d adds register %d with no scale", idx, op.add)
				}
			}
			regScale[op.dst] = outS
			q.ops = append(q.ops, qop)
		case opAvgPool:
			srcS := regScale[op.src]
			if !(srcS > 0) {
				return nil, fmt.Errorf("nn: Quantize: avgpool reads register %d with no scale", op.src)
			}
			q.ops = append(q.ops, qplanOp{kind: opAvgPool, src: op.src, dst: op.dst,
				add: -1, srcScale: srcS})
		case opLinear:
			q.ops = append(q.ops, qplanOp{kind: opLinear, src: op.src, dst: -1, add: -1,
				wf: op.w, biasf: op.bias, in: op.in, out: op.out})
		}
	}
	return q, nil
}

// quantizeWeightRow quantizes one f32 weight row into int8-range int16
// values: dst[i] = clamp(round(row[i] * inv), -127, 127).
func quantizeWeightRow(row []float32, inv float32, dst []int16) {
	for i, v := range row {
		qv := v * inv
		if qv >= 0 {
			qv += 0.5
			if qv >= 127 {
				qv = 127
			}
		} else {
			qv -= 0.5
			if qv <= -127 {
				qv = -127
			}
		}
		dst[i] = int16(qv)
	}
}

// maxAbs32 returns the largest absolute value in s (0 for an empty slice).
func maxAbs32(s []float32) float32 {
	var m float32
	for _, v := range s {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// footprint walks the quantized op list for an (n, h, w) input and returns
// the arena element counts: largest int8 register, largest int8 column
// matrix, largest int32 accumulator, and the f32 pooled-feature width.
func (q *QuantizedPlan) footprint(n, h, w int) (regElems, colElems, accElems, poolElems int) {
	var geoms [3]regGeom
	for _, op := range q.ops {
		switch op.kind {
		case opConv:
			g := regGeom{c: q.inC, h: h, w: w}
			if op.src >= 0 {
				g = geoms[op.src]
			}
			outH := (g.h+2*op.pad-op.k)/op.stride + 1
			outW := (g.w+2*op.pad-op.k)/op.stride + 1
			if e := op.inC * op.k * op.k * n * outH * outW; e > colElems {
				colElems = e
			}
			if e := op.outC * n * outH * outW; e > regElems {
				regElems = e
			}
			if e := op.outC * n * outH * outW; e > accElems {
				accElems = e
			}
			geoms[op.dst] = regGeom{c: op.outC, h: outH, w: outW}
		case opAvgPool:
			g := geoms[op.src]
			if e := n * g.c; e > poolElems {
				poolElems = e
			}
			geoms[op.dst] = regGeom{c: g.c, h: 1, w: 1}
		case opLinear:
		}
	}
	return regElems, colElems, accElems, poolElems
}

// getArena fetches a recycled arena sized for an (n, h, w) batch. The
// caller owns the arena and must Put it back once the forward finishes.
//
//smol:owns
//smol:noalloc
func (q *QuantizedPlan) getArena(n, h, w int) *qArena {
	ar, _ := q.arenas.Get().(*qArena)
	if ar == nil {
		ar = &qArena{} //smol:coldpath first call on this P
	}
	regElems, colElems, accElems, poolElems := q.footprint(n, h, w)
	for i := range ar.regs {
		if cap(ar.regs[i]) < regElems {
			ar.regs[i] = make([]int8, regElems) //smol:coldpath grow on shape change
		}
	}
	if cap(ar.col) < colElems {
		ar.col = make([]int8, colElems) //smol:coldpath grow on shape change
	}
	if cap(ar.acc) < accElems {
		ar.acc = make([]int32, accElems) //smol:coldpath grow on shape change
	}
	if cap(ar.qin) < n*q.inC*h*w {
		ar.qin = make([]int8, n*q.inC*h*w) //smol:coldpath grow on shape change
	}
	if cap(ar.pool) < poolElems {
		ar.pool = make([]float32, poolElems) //smol:coldpath grow on shape change
	}
	if cap(ar.logits) < n*q.classes {
		ar.logits = make([]float32, n*q.classes) //smol:coldpath grow on shape change
	}
	return ar
}

// run executes the quantized plan for x (N, C, H, W), leaving logits in
// ar.logits[:N*classes]. The external input is quantized once into the
// arena; intermediate int8 activations use the same channel-major CNHW
// layout as the f32 plan.
//
//smol:noalloc
func (q *QuantizedPlan) run(x *tensor.Tensor, ar *qArena) {
	if len(x.Shape) != 4 || x.Shape[1] != q.inC {
		//smol:coldpath shape mismatch is a caller bug
		panic(fmt.Sprintf("nn: QuantizedPlan input shape %v, want (N,%d,H,W)", x.Shape, q.inC))
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	tensor.QuantizeInt8(x.Data[:n*q.inC*h*w], ar.qin, 1/q.inScale)
	var geoms [3]regGeom
	for _, op := range q.ops {
		switch op.kind {
		case opConv:
			g := regGeom{c: q.inC, h: h, w: w}
			if op.src >= 0 {
				g = geoms[op.src]
			}
			outH := (g.h+2*op.pad-op.k)/op.stride + 1
			outW := (g.w+2*op.pad-op.k)/op.stride + 1
			total := n * outH * outW
			rows := op.inC * op.k * op.k
			col := ar.col[:rows*total]
			if op.src < 0 {
				// External input: NCHW strides.
				tensor.Im2ColBatchInt8(ar.qin, n, op.inC, g.h, g.w, op.inC*g.h*g.w, g.h*g.w,
					op.k, op.k, op.stride, op.pad, col)
			} else {
				// Arena register: CNHW strides.
				tensor.Im2ColBatchInt8(ar.regs[op.src], n, op.inC, g.h, g.w, g.h*g.w, n*g.h*g.w,
					op.k, op.k, op.stride, op.pad, col)
			}
			ep := tensor.EpilogueInt8{RowScale: op.rowScale, RowBias: op.bias,
				ReLU: op.relu, OutScale: op.outScale}
			if op.add >= 0 {
				ep.Add = ar.regs[op.add][:op.outC*total]
				ep.AddScale = op.addScale
			}
			tensor.GEMMInt8(op.outC, rows, total, op.w, col,
				ar.acc[:op.outC*total], ar.regs[op.dst][:op.outC*total], ep)
			geoms[op.dst] = regGeom{c: op.outC, h: outH, w: outW}
		case opAvgPool:
			g := geoms[op.src]
			spatial := g.h * g.w
			src := ar.regs[op.src]
			dst := ar.pool
			scale := op.srcScale / float32(spatial)
			for c := 0; c < g.c; c++ {
				for i := 0; i < n; i++ {
					plane := src[(c*n+i)*spatial : (c*n+i+1)*spatial]
					var s int32
					for _, v := range plane {
						s += int32(v)
					}
					dst[i*g.c+c] = float32(s) * scale
				}
			}
			geoms[op.dst] = regGeom{c: g.c, h: 1, w: 1}
		case opLinear:
			src := ar.pool[:n*op.in]
			logits := ar.logits[:n*op.out]
			for i := 0; i < n; i++ {
				xrow := src[i*op.in : (i+1)*op.in]
				for j := 0; j < op.out; j++ {
					wrow := op.wf[j*op.in : (j+1)*op.in]
					var s float32
					for pi, v := range xrow {
						s += v * wrow[pi]
					}
					logits[i*op.out+j] = s + op.biasf[j]
				}
			}
		}
	}
}

// Forward runs the quantized stack and returns the logits as a freshly
// allocated (N, classes) tensor. Safe for concurrent use.
func (q *QuantizedPlan) Forward(x *tensor.Tensor) *tensor.Tensor {
	n := x.Shape[0]
	out := tensor.New(n, q.classes)
	ar := q.getArena(n, x.Shape[2], x.Shape[3])
	q.run(x, ar)
	copy(out.Data, ar.logits[:n*q.classes])
	q.arenas.Put(ar)
	return out
}

// Predict returns the argmax class per sample.
func (q *QuantizedPlan) Predict(x *tensor.Tensor) []int {
	preds := make([]int, x.Shape[0])
	q.PredictInto(x, preds)
	return preds
}

// PredictInto writes the argmax class per sample into preds (len N). A
// warm call allocates nothing.
//
//smol:noalloc
func (q *QuantizedPlan) PredictInto(x *tensor.Tensor, preds []int) {
	n := x.Shape[0]
	if len(preds) != n {
		//smol:coldpath length mismatch is a caller bug
		panic(fmt.Sprintf("nn: QuantizedPlan.PredictInto preds length %d, want %d", len(preds), n))
	}
	ar := q.getArena(n, x.Shape[2], x.Shape[3])
	q.run(x, ar)
	k := q.classes
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
	q.arenas.Put(ar)
}

// Classes returns the classifier output width.
func (q *QuantizedPlan) Classes() int { return q.classes }

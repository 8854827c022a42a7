package costmodel

import (
	"fmt"
	"sort"

	"smol/internal/codec/jpeg"
	"smol/internal/hw"
	"smol/internal/preproc"
	"smol/internal/stats"
)

// imagenetMean and imagenetStd are the standard normalization constants.
var (
	imagenetMean = [3]float32{0.485, 0.456, 0.406}
	imagenetStd  = [3]float32{0.229, 0.224, 0.225}
)

// GenerateOptions controls plan generation.
type GenerateOptions struct {
	// OptimizePreproc enables the preprocessing DAG optimizer; when false
	// the naive framework-default plan is used (for lesion studies).
	OptimizePreproc bool
	// PlaceOps enables CPU/accelerator operator placement.
	PlaceOps bool
}

// Generate builds the D x F plan space: every DNN choice against every
// format, each with an optimized preprocessing pipeline and placement.
func Generate(dnns []DNNChoice, formats []Format, env Env, opts GenerateOptions) ([]Plan, error) {
	if len(dnns) == 0 || len(formats) == 0 {
		return nil, fmt.Errorf("costmodel: need at least one DNN and format")
	}
	var plans []Plan
	for _, d := range dnns {
		for _, f := range formats {
			spec := preproc.Spec{
				InW: f.W, InH: f.H,
				// Short-edge target scales with the DNN input resolution in
				// the standard 256:224 ratio.
				ResizeShort: d.InputRes * 256 / 224,
				CropW:       d.InputRes, CropH: d.InputRes,
				Mean: imagenetMean, Std: imagenetStd,
			}
			if opts.OptimizePreproc && f.Kind == hw.FormatJPEG {
				// JPEG offers DCT-domain reduced decoding, so decode
				// resolution joins the plan search (§5 jointly with §6.2).
				spec.DecodeScales = jpeg.SupportedScales()
			}
			// Small thumbnails may be below the resize target; upscale
			// specs are still valid as long as crop <= short target.
			var pplan preproc.Plan
			var err error
			if opts.OptimizePreproc {
				pplan, err = preproc.Optimize(spec)
				if err != nil {
					return nil, fmt.Errorf("costmodel: %s on %s: %w", d.Name, f.Name, err)
				}
			} else {
				pplan = preproc.NaivePlan(spec)
			}
			p := Plan{DNN: d, Format: f, Preproc: pplan, PreprocSpec: spec}
			if sc := pplan.DecodeScale(); sc > 1 {
				// Record the chosen scale on the format so the hw decode
				// model prices the reduced reconstruction.
				p.Format.DecodeScale = sc
			}
			if opts.PlaceOps {
				p, err = PlacePreprocOps(p, env)
				if err != nil {
					return nil, err
				}
			}
			plans = append(plans, p)
		}
	}
	return plans, nil
}

// Evaluated pairs a plan with its estimated accuracy, throughput, and
// worst-case per-image latency.
type Evaluated struct {
	Plan       Plan
	Accuracy   float64
	Throughput float64
	// LatencyUS is the EstimateLatencyUS prediction for the plan.
	LatencyUS float64
}

// Evaluate estimates every plan with the Smol cost model.
func Evaluate(plans []Plan, env Env) ([]Evaluated, error) {
	out := make([]Evaluated, 0, len(plans))
	for _, p := range plans {
		tput, err := EstimateSmol(p, env)
		if err != nil {
			return nil, err
		}
		lat, err := EstimateLatencyUS(p, env)
		if err != nil {
			return nil, err
		}
		out = append(out, Evaluated{Plan: p, Accuracy: p.DNN.Accuracy, Throughput: tput, LatencyUS: lat})
	}
	return out, nil
}

// ParetoFrontier filters evaluated plans to the accuracy/throughput Pareto
// frontier, sorted by ascending throughput.
func ParetoFrontier(evals []Evaluated) []Evaluated {
	pts := make([]stats.Point2, len(evals))
	for i, e := range evals {
		pts[i] = stats.Point2{X: e.Throughput, Y: e.Accuracy, Tag: i}
	}
	front := stats.ParetoFrontier(pts)
	out := make([]Evaluated, len(front))
	for i, p := range front {
		out[i] = evals[p.Tag]
	}
	return out
}

// Constraint restricts plan selection (§3.1). Zero values mean
// unconstrained.
type Constraint struct {
	// MinAccuracy requires at least this accuracy.
	MinAccuracy float64
	// MinThroughput requires at least this throughput (im/s).
	MinThroughput float64
	// MaxLatencyUS caps the worst-case per-image latency (§3.1's
	// latency-constrained deployment). Zero means unconstrained.
	MaxLatencyUS float64
}

// Select returns the best plan under the constraint: the highest-throughput
// plan meeting MinAccuracy, or the highest-accuracy plan meeting
// MinThroughput, or the highest-throughput plan overall when unconstrained.
// Ties on throughput and accuracy go to the lower LatencyUS.
func Select(evals []Evaluated, c Constraint) (Evaluated, error) {
	feasible := make([]Evaluated, 0, len(evals))
	for _, e := range evals {
		if e.Accuracy < c.MinAccuracy || e.Throughput < c.MinThroughput {
			continue
		}
		if c.MaxLatencyUS > 0 && e.LatencyUS > c.MaxLatencyUS {
			continue
		}
		feasible = append(feasible, e)
	}
	if len(feasible) == 0 {
		return Evaluated{}, fmt.Errorf("costmodel: no plan satisfies constraint %+v", c)
	}
	// With an accuracy floor, maximize throughput; with only a throughput
	// floor, maximize accuracy. Plans equal on both prefer the lower
	// latency, so an exact tie (two DNN-bound plans sharing a DNN) does
	// not fall to input order.
	sort.Slice(feasible, func(i, j int) bool {
		a, b := feasible[i], feasible[j]
		if c.MinThroughput > 0 && c.MinAccuracy == 0 {
			if a.Accuracy != b.Accuracy {
				return a.Accuracy > b.Accuracy
			}
			if a.Throughput != b.Throughput {
				return a.Throughput > b.Throughput
			}
			return a.LatencyUS < b.LatencyUS
		}
		if a.Throughput != b.Throughput {
			return a.Throughput > b.Throughput
		}
		if a.Accuracy != b.Accuracy {
			return a.Accuracy > b.Accuracy
		}
		return a.LatencyUS < b.LatencyUS
	})
	return feasible[0], nil
}

// Cascade models a Tahoma-style two-stage cascade: a specialized NN filters
// inputs, passing a fraction alpha through to the target DNN.
type Cascade struct {
	Specialized Plan
	Target      Plan
	// Alpha is the pass-through rate in [0, 1].
	Alpha float64
	// Accuracy is the cascade's end-to-end estimated accuracy.
	Accuracy float64
}

// CascadeExecThroughput composes the accelerator-side throughput of the
// cascade: every image runs the specialized NN; alpha of them also run the
// target (Eq. 2's summation with k=2).
func CascadeExecThroughput(c Cascade, env Env) (float64, error) {
	_, specExec, err := StageThroughputs(c.Specialized, env)
	if err != nil {
		return 0, err
	}
	_, tgtExec, err := StageThroughputs(c.Target, env)
	if err != nil {
		return 0, err
	}
	denom := 1/specExec + c.Alpha/tgtExec
	return 1 / denom, nil
}

// CascadeThroughputSmol estimates cascade end-to-end throughput with the
// preprocessing-aware min model. Preprocessing happens once per image
// (decode feeds the specialized NN; the paper notes cascades pay extra
// coalescing/copy costs, modeled as a 10% preprocessing surcharge on
// passed-through images).
func CascadeThroughputSmol(c Cascade, env Env) (float64, error) {
	pre, _, err := StageThroughputs(c.Specialized, env)
	if err != nil {
		return 0, err
	}
	exec, err := CascadeExecThroughput(c, env)
	if err != nil {
		return 0, err
	}
	pre = pre / (1 + 0.1*c.Alpha)
	if pre < exec {
		return pre, nil
	}
	return exec, nil
}

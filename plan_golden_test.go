package smol

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"smol/internal/blazeit"
	"smol/internal/codec/vid"
	"smol/internal/hw"
	"smol/internal/img"
)

var updatePlanGolden = flag.Bool("update", false, "regenerate testdata/plan_golden.txt from the current planners")

const planGoldenPath = "testdata/plan_golden.txt"

// planFloors and planLatencyCaps span the QoS grid every plan class is
// searched under: no floor, a floor only the accurate entry and its int8
// twin clear, and a floor only the accurate f32 entry clears, each with and
// without a latency cap.
var (
	planFloors      = []float64{0, 0.7, 0.95}
	planLatencyCaps = []float64{0, 40000}
)

// planClass is one planning request with its QoS left open: run searches
// it under a target and returns the chosen plan (for SELECT, the
// verification plan) plus the SELECT plan when the class is a selection.
type planClass struct {
	name string
	run  func(QoS) (ServePlan, *SelectPlan, error)
}

// pinnedPlanRuntime builds a planner-only runtime over the quantized tiny
// zoo with every calibration input pinned, so plan decisions depend only on
// the cost model and the request.
func pinnedPlanRuntime(t *testing.T, z *Zoo, cfg RuntimeConfig) *Runtime {
	t.Helper()
	cfg.BatchSize, cfg.Workers = 8, 2
	r, err := NewZooRuntime(z, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exec := map[string]float64{
		"resnet-a@16": 400, "resnet-a@8": 120,
		"resnet-a@16/int8": 150, "resnet-a@8/int8": 60,
	}
	for _, e := range z.Entries() {
		if _, ok := exec[e.Name()]; !ok {
			t.Fatalf("no pinned execution cost for zoo entry %s", e.Name())
		}
	}
	pin := &hw.Calibration{ExecUS: exec, Kernel: "avx2", PreprocScale: 0.5, VideoScale: 0.25}
	r.calOnce.Do(func() { r.cal = pin })
	r.vidCalOnce.Do(func() {})
	return r
}

// planClasses enumerates the golden grid: still images per codec, size and
// decode configuration; video per rendition set, stride, deblock mode, GOP
// seek and deblock penalty; SELECT per limit, confidence floor and cached
// score tables.
func planClasses(t *testing.T) []planClass {
	t.Helper()
	z, _ := quantizedTinyZoo(t)
	configs := []struct {
		name string
		cfg  RuntimeConfig
	}{
		{"default", RuntimeConfig{}},
		{"roi", RuntimeConfig{ROIDecode: true}},
		{"noscale", RuntimeConfig{DisableScaledDecode: true}},
	}
	var classes []planClass
	for _, c := range configs {
		r := pinnedPlanRuntime(t, z, c.cfg)
		for _, codec := range []Codec{CodecJPEG, CodecPNG} {
			for _, size := range [][2]int{{1920, 1080}, {1280, 720}, {160, 160}} {
				m := img.New(size[0], size[1])
				in := MediaInput{Codec: codec}
				if codec == CodecJPEG {
					in.Data = EncodeJPEG(m, 90)
				} else {
					in.Data = EncodePNG(m)
				}
				classes = append(classes, planClass{
					name: fmt.Sprintf("still %s %dx%d %s", codec, size[0], size[1], c.name),
					run: func(q QoS) (ServePlan, *SelectPlan, error) {
						_, p, err := r.planFor([]MediaInput{in}, q)
						return p, nil, err
					},
				})
			}
		}
	}

	primary := vid.Info{W: 320, H: 180, Frames: 360, GOP: 30, Quality: 75}
	// The rendition's short edge undershoots the 16px entry's resize target,
	// so serving that entry from it carries the undersize penalty.
	rendition := vid.Info{W: 24, H: 12, Frames: 360, GOP: 30, Quality: 75}
	streamSets := []struct {
		name  string
		infos []vid.Info
	}{
		{"primary", []vid.Info{primary}},
		{"primary+rendition", []vid.Info{primary, rendition}},
	}
	modes := []struct {
		name string
		mode DeblockMode
	}{{"auto", DeblockAuto}, {"on", DeblockOn}, {"off", DeblockOff}}
	for _, penalty := range []float64{0, -1} {
		r := pinnedPlanRuntime(t, z, RuntimeConfig{VideoDeblockPenalty: penalty})
		for _, ss := range streamSets {
			for _, stride := range []int{1, 6, 30} {
				for _, m := range modes {
					for _, seek := range []bool{true, false} {
						classes = append(classes, planClass{
							name: fmt.Sprintf("video %s stride=%d deblock=%s seek=%v penalty=%v",
								ss.name, stride, m.name, seek, penalty),
							run: func(q QoS) (ServePlan, *SelectPlan, error) {
								_, _, p, err := r.planVideoInfos(ss.infos, q, stride, m.mode, seek)
								return p, nil, err
							},
						})
					}
				}
			}
		}
	}

	r := pinnedPlanRuntime(t, z, RuntimeConfig{})
	infos := []vid.Info{primary, rendition}
	blob0 := map[streamProxy]bool{{stream: 0, proxy: blazeit.BlobProxyName}: true}
	for _, limit := range []int{0, 10} {
		for _, minConf := range []float64{0, 0.9} {
			for _, cached := range []map[streamProxy]bool{nil, blob0} {
				cachedName := "none"
				if cached != nil {
					cachedName = "blob@0"
				}
				classes = append(classes, planClass{
					name: fmt.Sprintf("select limit=%d minconf=%v cached=%s", limit, minConf, cachedName),
					run: func(q QoS) (ServePlan, *SelectPlan, error) {
						sel, err := r.planSelect(infos, q, 6, DeblockAuto, limit, minConf, cached)
						if err != nil {
							return ServePlan{}, nil, err
						}
						return sel.plan.Verify, &sel.plan, nil
					},
				})
			}
		}
	}
	return classes
}

// planQoSGrid is every (floor, latency cap) target of the golden grid.
func planQoSGrid() []QoS {
	var grid []QoS
	for _, lat := range planLatencyCaps {
		for _, floor := range planFloors {
			grid = append(grid, QoS{MinAccuracy: floor, MaxLatencyUS: lat})
		}
	}
	return grid
}

// servePlanLine prints every ServePlan field except Kernel, which names the
// GEMM tier the build dispatches to rather than a plan decision.
func servePlanLine(p ServePlan) string {
	return fmt.Sprintf("entry=%s variant=%s res=%v prec=%s acc=%v format=%q scale=%v deblock=%v stream=%v preproc=%q tput=%v lat=%v",
		p.Entry, p.Variant, p.InputRes, p.Precision, p.Accuracy, p.InputFormat, p.DecodeScale,
		p.Deblock, p.Stream, p.Preproc, p.PredictedThroughput, p.PredictedLatencyUS)
}

// planGoldenLines runs every class under every QoS target and prints one
// line per decision.
func planGoldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, c := range planClasses(t) {
		for _, q := range planQoSGrid() {
			head := fmt.Sprintf("%s qos=%v/%v:", c.name, q.MinAccuracy, q.MaxLatencyUS)
			p, sp, err := c.run(q)
			switch {
			case err != nil:
				lines = append(lines, fmt.Sprintf("%s error %q", head, err.Error()))
			case sp != nil:
				lines = append(lines, fmt.Sprintf("%s proxy=%s proxystream=%v proxycached=%v verifications=%v cost=%v verify: %s",
					head, sp.Proxy, sp.ProxyStream, sp.ProxyCached, sp.PredictedVerifications, sp.PredictedCostUS, servePlanLine(p)))
			default:
				lines = append(lines, head+" "+servePlanLine(p))
			}
		}
	}
	return lines
}

// TestPlanGolden pins every planner decision over the golden grid — the
// chosen entry, decode fidelity, preprocessing chain and predictions — so a
// refactor of the plan search must reproduce them byte for byte. Run with
// -update to regenerate the table after an intended planner change.
func TestPlanGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds in the cost model and
		// print different low-order digits.
		t.Skip("golden plan table is recorded on amd64")
	}
	got := strings.Join(planGoldenLines(t), "\n") + "\n"
	if *updatePlanGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(planGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(planGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("plan decision %d changed:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden grid has %d lines, table has %d", len(gotLines), len(wantLines))
	}
}

// TestPlannerProperties checks every class of the golden grid against the
// planner's contract: the chosen plan meets the accuracy floor and the
// latency cap it was asked for, raising the floor never raises the chosen
// plan's predicted throughput (SELECT: its verification plan's), and a
// floor above every zoo entry fails in every planner.
func TestPlannerProperties(t *testing.T) {
	z, _ := quantizedTinyZoo(t)
	top := 0.0
	for _, e := range z.Entries() {
		top = math.Max(top, e.Accuracy)
	}
	for _, c := range planClasses(t) {
		for _, lat := range planLatencyCaps {
			prevTput, prevFailed := math.Inf(1), false
			for _, floor := range planFloors {
				q := QoS{MinAccuracy: floor, MaxLatencyUS: lat}
				p, _, err := c.run(q)
				if err != nil {
					prevFailed = true
					continue
				}
				if prevFailed {
					t.Errorf("%s: QoS %+v is served but a lower floor failed", c.name, q)
				}
				if p.Accuracy < floor {
					t.Errorf("%s: QoS %+v chose %s at accuracy %v", c.name, q, p.Entry, p.Accuracy)
				}
				if lat > 0 && p.PredictedLatencyUS > lat {
					t.Errorf("%s: QoS %+v chose %s at predicted latency %vus", c.name, q, p.Entry, p.PredictedLatencyUS)
				}
				if p.PredictedThroughput > prevTput {
					t.Errorf("%s: QoS %+v raised predicted throughput to %v from %v at a lower floor",
						c.name, q, p.PredictedThroughput, prevTput)
				}
				prevTput = p.PredictedThroughput
			}
		}
		if p, _, err := c.run(QoS{MinAccuracy: top + 0.01}); err == nil {
			t.Errorf("%s: floor %v above every zoo entry served %s", c.name, top+0.01, p.Entry)
		}
	}
}

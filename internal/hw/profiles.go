// Package hw models the hardware substrate of the paper's experiments: GPU
// accelerators (K80 through T4), DNN execution frameworks (Keras, PyTorch,
// TensorRT), CPU preprocessing costs, and the AWS g4dn price/power model of
// §7. A deterministic discrete-event simulator (sim.go) composes these into
// pipelined end-to-end throughput.
//
// Substitution note: the reproduction runs without a GPU, so DNN
// execution time is a calibrated service-time model.
// The calibration anchors are the paper's own published measurements
// (Tables 1, 2, 5 and §2); everything downstream — cost-model accuracy,
// Pareto frontiers, operator placement — consumes only these service times,
// which is exactly what it would consume from a real device.
package hw

import (
	"fmt"
	"sort"
)

// DeviceProfile describes one accelerator generation.
type DeviceProfile struct {
	Name        string
	ReleaseYear int
	// ResNet50TPut is the measured ResNet-50 throughput (im/s) with an
	// optimized compiler at batch 64 (Table 5).
	ResNet50TPut float64
	// PowerWatts is the board power draw under inference load.
	PowerWatts float64
	// HourlyUSD is the accelerator's amortized hourly price (the T4 figure
	// comes from the paper's linear fit; others are scaled by list price).
	HourlyUSD float64
}

// Devices indexed by name. Throughputs are the paper's Table 5.
var devices = map[string]DeviceProfile{
	"K80":  {Name: "K80", ReleaseYear: 2014, ResNet50TPut: 159, PowerWatts: 300, HourlyUSD: 0.35},
	"P100": {Name: "P100", ReleaseYear: 2016, ResNet50TPut: 1955, PowerWatts: 250, HourlyUSD: 0.75},
	"V100": {Name: "V100", ReleaseYear: 2017, ResNet50TPut: 7151, PowerWatts: 300, HourlyUSD: 1.35},
	"T4":   {Name: "T4", ReleaseYear: 2019, ResNet50TPut: 4513, PowerWatts: 70, HourlyUSD: 0.218},
	"RTX":  {Name: "RTX", ReleaseYear: 2019, ResNet50TPut: 15008, PowerWatts: 280, HourlyUSD: 1.20},
}

// Device returns the named device profile.
func Device(name string) (DeviceProfile, error) {
	d, ok := devices[name]
	if !ok {
		return DeviceProfile{}, fmt.Errorf("hw: unknown device %q", name)
	}
	return d, nil
}

// DeviceNames lists known devices sorted by release year then name.
func DeviceNames() []string {
	names := make([]string, 0, len(devices))
	for n := range devices {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := devices[names[i]], devices[names[j]]
		if a.ReleaseYear != b.ReleaseYear {
			return a.ReleaseYear < b.ReleaseYear
		}
		return a.Name < b.Name
	})
	return names
}

// FrameworkProfile scales DNN throughput by software efficiency (Table 1:
// the same T4 runs ResNet-50 at 243 im/s under Keras and 4513 under
// TensorRT).
type FrameworkProfile struct {
	Name string
	// Efficiency is the fraction of the optimized-compiler throughput the
	// framework achieves.
	Efficiency float64
	// BatchSize is the optimal batch size the paper used.
	BatchSize int
}

var frameworks = map[string]FrameworkProfile{
	"Keras":    {Name: "Keras", Efficiency: 243.0 / 4513.0, BatchSize: 64},
	"PyTorch":  {Name: "PyTorch", Efficiency: 424.0 / 4513.0, BatchSize: 256},
	"TensorRT": {Name: "TensorRT", Efficiency: 1.0, BatchSize: 64},
}

// Framework returns the named framework profile.
func Framework(name string) (FrameworkProfile, error) {
	f, ok := frameworks[name]
	if !ok {
		return FrameworkProfile{}, fmt.Errorf("hw: unknown framework %q", name)
	}
	return f, nil
}

// FrameworkNames lists known frameworks in ascending efficiency.
func FrameworkNames() []string { return []string{"Keras", "PyTorch", "TensorRT"} }

// DNNProfile is a network's compute profile at paper scale.
type DNNProfile struct {
	Name string
	// GFLOPs per image at the standard 224x224 input.
	GFLOPs float64
	// T4TPut is the measured TensorRT throughput on the T4 (im/s), the
	// calibration anchor (Table 2). Zero means "derive from GFLOPs".
	T4TPut float64
	// Top1 is the paper's reported full-resolution ImageNet accuracy.
	Top1 float64
}

// Paper-scale DNNs (Table 2 plus the specialized-NN regime).
var dnns = map[string]DNNProfile{
	"resnet-18": {Name: "resnet-18", GFLOPs: 1.82, T4TPut: 12592, Top1: 0.682},
	"resnet-34": {Name: "resnet-34", GFLOPs: 3.67, T4TPut: 6860, Top1: 0.719},
	"resnet-50": {Name: "resnet-50", GFLOPs: 4.12, T4TPut: 4513, Top1: 0.7434},
	// The MLPerf Inference MobileNet-SSD detector the paper cites in §2
	// (7,431 im/s on the T4 vs 397 im/s MS-COCO preprocessing). Top1 here
	// is its COCO mAP, not an ImageNet top-1; it only feeds the §2
	// measurement reproduction, never an accuracy-constrained plan search.
	"mobilenet-ssd": {Name: "mobilenet-ssd", GFLOPs: 2.47, T4TPut: 7431, Top1: 0.22},
	// A BlazeIt/NoScope-style tiny specialized NN: orders of magnitude
	// cheaper, far less accurate (§5.1: up to 250k im/s).
	"tiny-specialized": {Name: "tiny-specialized", GFLOPs: 0.008, T4TPut: 250000, Top1: 0.55},
}

// DNN returns the named network profile.
func DNN(name string) (DNNProfile, error) {
	d, ok := dnns[name]
	if !ok {
		return DNNProfile{}, fmt.Errorf("hw: unknown DNN %q", name)
	}
	return d, nil
}

// DNNNames lists known paper-scale networks, cheapest first.
func DNNNames() []string {
	return []string{"tiny-specialized", "resnet-18", "mobilenet-ssd", "resnet-34", "resnet-50"}
}

// ExecThroughput returns the modeled DNN execution throughput (im/s) for a
// network on a device under a framework. Known (network, T4) pairs use
// measured anchors; everything else scales by FLOPs and device capability.
func ExecThroughput(dnn DNNProfile, dev DeviceProfile, fw FrameworkProfile) float64 {
	base := dnn.T4TPut
	if base == 0 {
		// FLOPs scaling against the ResNet-50 anchor.
		rn50 := dnns["resnet-50"]
		base = rn50.T4TPut * rn50.GFLOPs / dnn.GFLOPs
	}
	deviceScale := dev.ResNet50TPut / devices["T4"].ResNet50TPut
	return base * deviceScale * fw.Efficiency
}

// InputScaledThroughput adjusts a network's throughput for a non-standard
// input resolution: convolutional cost scales with pixel count, so a
// 161x161 input runs (224/161)^2 faster than 224x224.
func InputScaledThroughput(base float64, inputRes, standardRes int) float64 {
	if inputRes <= 0 || standardRes <= 0 {
		panic("hw: invalid resolutions")
	}
	s := float64(standardRes) / float64(inputRes)
	return base * s * s
}

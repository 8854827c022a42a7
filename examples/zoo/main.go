// Zoo: serve one task from a multi-variant model zoo with joint
// accuracy/throughput plan selection — the paper's headline workflow run
// live. A single model forces one point on the accuracy/throughput curve;
// a zoo of (variant, input resolution) entries plus a serving planner
// turns the curve into a per-request knob: every request carries a QoS
// target (accuracy floor, latency ceiling, or max throughput) and the
// planner jointly picks the model variant, input resolution, decode scale,
// and preprocessing chain for it, using cost estimates calibrated against
// live measurements of this machine.
//
// The walkthrough
//  1. trains a small zoo (resnet-b and resnet-a at native resolution,
//     resnet-a at half resolution) with measured validation accuracies,
//  2. serves the same test set at different accuracy floors from one warm
//     Server, showing the planner routing each floor to a different entry
//     and the throughput spread that buys, and
//  3. prints each request's ServePlan — the -explain view.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"smol"
	"smol/internal/data"
)

func main() {
	// 1. Render a 6-class dataset (classes differ by shape and fine
	// texture, so resolution genuinely matters) and train the zoo. TrainZoo
	// holds out a validation tail so every entry's accuracy is measured,
	// not assumed.
	rng := rand.New(rand.NewSource(7))
	const fullRes, classes = 64, 6
	var images []smol.LabeledImage
	for i := 0; i < 360; i++ {
		c := i % classes
		images = append(images, smol.LabeledImage{Image: data.RenderImage(rng, c, classes, fullRes), Label: c})
	}
	fmt.Println("training zoo (resnet-b@64, resnet-a@64, resnet-a@16)...")
	zoo, err := smol.TrainZoo(images, classes, smol.ZooTrainOptions{
		// The 16px entry trades fine texture (the classes' distinguishing
		// signal) for a 16x cheaper forward pass — a real accuracy cost the
		// validation split measures.
		Specs:  []smol.ZooSpec{{Variant: "resnet-b"}, {Variant: "resnet-a"}, {Variant: "resnet-a", InputRes: 16}},
		Epochs: 3, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range zoo.Entries() {
		fmt.Printf("  %-12s validation accuracy %.3f\n", e.Name(), e.Accuracy)
	}

	// 2. One warm server for every QoS target. The engine keeps a shape
	// class (tensor pool, staging arena, batch streams) per entry, so
	// requests routed to different entries still share the workers.
	rt, err := smol.NewZooRuntime(zoo, smol.RuntimeConfig{BatchSize: 16})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := rt.Serve()
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	var test []smol.LabeledImage
	for i := 0; i < 96; i++ {
		c := i % classes
		test = append(test, smol.LabeledImage{Image: data.RenderImage(rng, c, classes, 2*fullRes), Label: c})
	}
	inputs := make([]smol.MediaInput, len(test))
	for i, li := range test {
		inputs[i] = smol.MediaInput{Codec: smol.CodecJPEG, Data: smol.EncodeJPEG(li.Image, 90)}
	}

	// 3. Sweep accuracy floors through the planner. A strict floor pins
	// the most accurate entry; relaxing it frees the planner to route to
	// cheaper entries for more throughput. Note the strict floor is no
	// longer the slow lane: its f32 forwards run the AVX2 GEMM tier (~7x
	// the portable kernel, bit-identical results — the plan line prints
	// the active kernel), so guaranteed-exact serving inherits most of the
	// relaxed tier's hardware speed.
	best, _ := zoo.Best()
	floors := []float64{best.Accuracy, best.Accuracy - 0.1, 0}
	if _, err := srv.ClassifyMedia(context.Background(), inputs[:4], smol.QoS{}); err != nil { // warm the pools
		log.Fatal(err)
	}
	for _, floor := range floors {
		res, err := srv.ClassifyMedia(context.Background(), inputs, smol.QoS{MinAccuracy: floor})
		if err != nil {
			log.Fatal(err)
		}
		correct := 0
		for i, p := range res.Predictions {
			if p == test[i].Label {
				correct++
			}
		}
		fmt.Printf("\nfloor %.3f: measured %.1f%% over %d images at %.0f im/s\n",
			floor, 100*float64(correct)/float64(len(test)), len(test), res.Stats.Throughput)
		fmt.Printf("  plan: %s\n", res.Plan)
	}
}

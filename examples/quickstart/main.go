// Quickstart: train a tiny classifier on synthetic images, encode the test
// set as JPEG, and classify it end-to-end through Smol's pipelined runtime
// engine (decode -> optimized preprocessing -> batching -> model).
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
	// 1. Build a small 2-class dataset (the bike-bird setting).
	rng := rand.New(rand.NewSource(7))
	const res, classes = 16, 2
	var train, test []smol.LabeledImage
	for i := 0; i < 240; i++ {
		c := i % classes
		train = append(train, smol.LabeledImage{Image: data.RenderImage(rng, c, classes, res), Label: c})
	}
	for i := 0; i < 80; i++ {
		c := i % classes
		test = append(test, smol.LabeledImage{Image: data.RenderImage(rng, c, classes, res), Label: c})
	}

	// 2. Train the cheapest micro-ResNet variant.
	fmt.Println("training classifier...")
	clf, err := smol.TrainClassifier(train, classes, smol.TrainOptions{Epochs: 6, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("holdout accuracy (raw images): %.1f%%\n", clf.Evaluate(test)*100)

	// 3. Encode the test set as JPEGs — the form data arrives in at
	// inference time.
	inputs := make([]smol.MediaInput, len(test))
	for i, li := range test {
		inputs[i] = smol.MediaInput{Codec: smol.CodecJPEG, Data: smol.EncodeJPEG(li.Image, 90)}
	}

	// 4. Classify through the pipelined engine: Serve brings it up, and
	// the zero QoS asks for maximum throughput.
	rt, err := smol.NewRuntime(clf.Model, smol.RuntimeConfig{InputRes: res, BatchSize: 16})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := rt.Serve()
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	result, err := srv.ClassifyMedia(context.Background(), inputs, smol.QoS{})
	if err != nil {
		log.Fatal(err)
	}
	correct := 0
	for i, p := range result.Predictions {
		if p == test[i].Label {
			correct++
		}
	}
	fmt.Printf("end-to-end accuracy (JPEG -> engine): %.1f%%\n",
		100*float64(correct)/float64(len(test)))
	fmt.Printf("engine: %.0f im/s, %d batches, %d buffer reuses\n",
		result.Stats.Throughput, result.Stats.Batches, result.Stats.PoolReuses)
}

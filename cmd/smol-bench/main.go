// Command smol-bench regenerates every table and figure of the paper's
// evaluation (one runner each in internal/experiments) and prints them as
// aligned text tables.
//
// Usage:
//
//	smol-bench [-id table3] [-full] [-o results.txt]
//
// Accuracy-bearing experiments (table7, figure4-6) train models on demand
// unless cmd/smol-train has populated the zoo directory; -full uses the
// full dataset scale and the zoo.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"smol/internal/experiments"
)

func main() {
	log.SetFlags(0)
	id := flag.String("id", "", "run only this experiment (default: all)")
	full := flag.Bool("full", false, "full scale (uses the trained zoo; slower)")
	out := flag.String("o", "", "also write results to this file")
	flag.Parse()

	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	ids := experiments.IDs()
	if *id != "" {
		ids = []string{*id}
	}
	for _, eid := range ids {
		start := time.Now()
		tbl, err := experiments.Run(eid, scale)
		if err != nil {
			log.Fatalf("%s: %v", eid, err)
		}
		fmt.Fprintln(w, tbl)
		fmt.Fprintf(w, "(%s in %s)\n\n", eid, time.Since(start).Round(time.Millisecond))
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// Every workload runs in a fresh child process, so set-up time and peak
// memory are per workload and one workload's warm caches never serve
// another.

// runChild re-executes this binary for one workload and returns its result
// line. The child's report is echoed when verbose.
func runChild(name string, seed int64, seconds float64, trace int, verbose bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // Run waits for the child to end
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if verbose {
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s (trace %d) printed no result line: %v (exit: %v)", name, trace, err, runErr)
	}
	if runErr != nil || !res.Correct {
		return res, fmt.Errorf("%s (trace %d): correct=%v, %d of %d requests failed (exit: %v)",
			name, trace, res.Correct, res.Failed, res.Attempted, runErr)
	}
	return res, nil
}

// runAll is the one command: every workload, timed and then traced, every
// metric by name with its unit, non-zero exit if any check fails.
func runAll(seed int64, seconds float64) int {
	timed := map[string]result{}
	traced := map[string]result{}
	for _, name := range workloadNames {
		for trace, into := range []map[string]result{timed, traced} {
			res, err := runChild(name, seed, seconds, trace, true)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			into[name] = res
		}
	}
	fmt.Println("\n== end-to-end (untraced runs) ==")
	printTable(endToEnd, timed)
	fmt.Println("\n== per layer (traced runs) ==")
	printTable(perLayer, traced)
	return 0
}

// printTable prints one row per metric and one column per workload.
func printTable(defs []metricDef, byWorkload map[string]result) {
	fmt.Printf("%-32s %-7s", "metric", "unit")
	for _, name := range workloadNames {
		fmt.Printf(" %14s", name)
	}
	fmt.Println()
	for _, d := range defs {
		fmt.Printf("%-32s %-7s", d.name, d.unit)
		for _, name := range workloadNames {
			fmt.Printf(" %14.4f", byWorkload[name].Metrics[d.name].Value)
		}
		fmt.Println()
	}
}

// benchmarkJSON is the part of BENCHMARK.json the selfcheck needs.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkJSON(path string) (benchmarkJSON, error) {
	var b benchmarkJSON
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	return b, json.Unmarshal(data, &b)
}

// exactCounts are the layer metrics that count work rather than time it:
// two runs of one build on one seed must agree on them to the last bit.
var exactCounts = []string{"select.oracle_per_result", "select.gops_touched_ratio", "select.proxy_invocations",
	"vid.frames_decoded_per_sample", "jpeg.idct_samples_per_image"}

// runSelfcheck measures the benchmark's own noise the way the acceptance
// driver does: two sets of `runs` runs per workload, each run with another
// seed, the sets back to back with the workload order reversed between
// them. Per metric it prints each set's median, quartiles and spread
// (inter-quartile distance over the median). It fails when a spread exceeds
// the metric's bound, when the second set's median is worse than the
// first's by more than the bound, or when an exact count differs between
// the sets' traced runs. The bounds in BENCHMARK.json are set from this
// output.
func runSelfcheck(runs int, seconds float64) int {
	spec, err := readBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: selfcheck reads the bounds from BENCHMARK.json in the working directory:", err)
		return 2
	}
	// values[set][workload][metric] lists one value per run.
	var values [2]map[string]map[string][]float64
	var counts [2]map[string]result
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		counts[set] = map[string]result{}
		order := append([]string(nil), workloadNames...)
		if set == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for run := 0; run < runs; run++ {
			for _, name := range order {
				res, err := runChild(name, int64(run+1), seconds, 0, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				if values[set][name] == nil {
					values[set][name] = map[string][]float64{}
				}
				for metric, v := range res.Metrics {
					values[set][name][metric] = append(values[set][name][metric], v.Value)
				}
				fmt.Printf("set %d run %d %-13s items_per_s %.3f\n", set+1, run+1, name, res.Metrics["items_per_s"].Value)
			}
		}
		for _, name := range order {
			res, err := runChild(name, 1, seconds, 1, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			counts[set][name] = res
		}
	}

	failures := 0
	fmt.Printf("\n%-13s %-16s %4s %12s %12s %12s %8s %8s %8s\n", "workload", "metric", "set",
		"q1", "median", "q3", "spread", "worse", "bound")
	for _, name := range workloadNames {
		for _, m := range spec.EndToEnd {
			a, b := values[0][name][m.Name], values[1][name][m.Name]
			if len(a) < 2 || len(b) < 2 {
				fmt.Fprintln(os.Stderr, "benchmark: selfcheck needs -runs of at least 2")
				return 2
			}
			medA, medB := median(a), median(b)
			worse := (medB - medA) / medA
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			// The driver does not hold setup_s to its spread, only to its medians.
			if worse > m.Bound || (m.Name != "setup_s" && (spread(a) > m.Bound || spread(b) > m.Bound)) {
				verdict = "FAIL"
				failures++
			}
			for set, v := range [][]float64{a, b} {
				q1, q2, q3 := quartiles(v)
				fmt.Printf("%-13s %-16s %4d %12.4f %12.4f %12.4f %7.2f%%", name, m.Name, set+1, q1, q2, q3, 100*spread(v))
				if set == 1 {
					fmt.Printf(" %7.2f%% %7.2f%% %6s", 100*worse, 100*m.Bound, verdict)
				}
				fmt.Println()
			}
		}
		for _, metric := range exactCounts {
			x, y := counts[0][name].Metrics[metric].Value, counts[1][name].Metrics[metric].Value
			if x != y {
				fmt.Printf("%-13s %-32s differs between the sets: %v vs %v FAIL\n", name, metric, x, y)
				failures++
			}
		}
	}
	if failures > 0 {
		fmt.Printf("\nselfcheck: %d metric x workload pairs outside their bounds\n", failures)
		return 1
	}
	fmt.Println("\nselfcheck: both sets agree within every bound; exact counts identical")
	return 0
}

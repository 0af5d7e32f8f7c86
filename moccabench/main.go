// Command moccabench is the repository's benchmark. It runs one named
// workload through workload.Run, checks that the runs are correct, and
// prints its metrics as one JSON object on the last line of standard
// output:
//
//	moccabench --workload mesh-chaos --seed 1992 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced runs;
// with --trace 1 the per-layer metrics of a traced run (telemetry on, CPU
// profile split by package) and of timed probes into each layer. Each
// workload.Run executes in a child process (moccabench --child, spec on
// standard input). Store directories live under .bench_build/ in the
// working directory and are removed on exit. run.sh builds and runs it; NOTES.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) add(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// progress reports what the benchmark is doing on standard error.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "moccabench: "+format+"\n", args...)
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == "--child" {
		if err := child(); err != nil {
			progress("FAIL: %v", err)
			os.Exit(1)
		}
		return
	}
	if err := run(); err != nil {
		progress("FAIL: %v", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: mesh-chaos, gossip-durable or lookup-heavy")
		seed    = flag.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (claims also hold at the held-out seed %d)", heldOutSeed))
		seconds = flag.Int("seconds", 30, "measuring time per run, in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics of untraced runs; 1: per-layer metrics of traced runs")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	scratch := filepath.Join(cwd, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratch, "moccabench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	b := &bench{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, dir: dir}
	var res result
	if *trace == 1 {
		res, err = b.perLayer()
	} else {
		res, err = b.endToEnd()
	}
	if err != nil {
		return err
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

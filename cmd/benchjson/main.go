// Command benchjson converts `go test -bench` text output into a compact
// JSON perf-trajectory artifact: one record per benchmark with ns/op,
// allocs/op and every custom metric the harness reported (digestB/op,
// fsyncs/op, segprobes/op, ms/recovery, ...), plus a pivoted recovery_ms
// table keyed by recovery mode and store size. CI runs it over the
// benchmark log so each PR leaves a machine-readable point on the
// repository's performance trajectory.
//
//	go test -run='^$' -bench=. -benchtime=1x ./... | tee bench.txt
//	go run ./cmd/benchjson -o BENCH.json bench.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
)

// entry is one benchmark line. Core metrics get stable top-level keys;
// everything else lands in Metrics under its literal unit name.
type entry struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_op,omitempty"`
	AllocsOp   float64            `json:"allocs_op,omitempty"`
	BytesOp    float64            `json:"bytes_op,omitempty"`
	DigestBOp  float64            `json:"digestB_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

type artifact struct {
	Benchmarks []entry `json:"benchmarks"`
	// RecoveryMs pivots BenchmarkRecovery's ms/recovery metric:
	// "wal/objects=1000000" -> milliseconds per Open.
	RecoveryMs map[string]float64 `json:"recovery_ms,omitempty"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}

	art := artifact{RecoveryMs: make(map[string]float64)}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		e, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		art.Benchmarks = append(art.Benchmarks, e)
		if rest, found := strings.CutPrefix(e.Name, "BenchmarkRecovery/"); found {
			if ms, has := e.Metrics["ms/recovery"]; has {
				art.RecoveryMs[trimProcSuffix(rest)] = ms
			}
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if len(art.Benchmarks) == 0 {
		log.Fatal("benchjson: no benchmark lines in input")
	}
	if len(art.RecoveryMs) == 0 {
		art.RecoveryMs = nil
	}

	enc, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks -> %s\n", len(art.Benchmarks), *out)
}

// parseLine decodes one `go test -bench` result line:
//
//	BenchmarkName/sub-8   100   9925 ns/op   12 B/op   3 allocs/op   0.85 ms/recovery
//
// The name, the iteration count, then (value, unit) pairs.
func parseLine(line string) (entry, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return entry{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return entry{}, false
	}
	e := entry{Name: trimProcSuffix(f[0]), Iterations: iters, Metrics: make(map[string]float64)}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return entry{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			e.NsPerOp = v
		case "allocs/op":
			e.AllocsOp = v
		case "B/op":
			e.BytesOp = v
		case "digestB/op":
			e.DigestBOp = v
		default:
			e.Metrics[unit] = v
		}
	}
	if len(e.Metrics) == 0 {
		e.Metrics = nil
	}
	return e, true
}

// trimProcSuffix drops the trailing -N GOMAXPROCS marker go test appends
// to benchmark names, so artifact keys are stable across runner shapes.
func trimProcSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

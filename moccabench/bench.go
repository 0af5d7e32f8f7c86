package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"mocca/internal/workload"
)

// runStats is one workload.Run as the benchmark saw it.
type runStats struct {
	spec      workload.Spec
	rep       *workload.Report
	fp        string // the report's fingerprint, taken in the child
	wall, cpu time.Duration
	allocated uint64 // heap bytes allocated during the run
	gcCycles  uint32
	maxRSSMB  float64 // peak resident set of the child process
	profile   []byte  // CPU profile of the run, when asked for

	issued, skipped, completed, failed int64
	// pending counts ops that never completed: writes never visible at
	// every site and mail never delivered.
	pending   int64
	wireBytes int64              // BytesOut over every service plane
	vis       workload.Histogram // info.write + info.update visibility
}

func (r runStats) attempted() int64 { return r.issued - r.skipped }
func (r runStats) notDone() int64   { return r.failed + r.pending }

// childRequest and childResult are the protocol between the benchmark
// and the child process it starts for each run. Every run gets a fresh
// process, so no run inherits the heap, the goroutines or the open
// stores of the runs before it.
type childRequest struct {
	Spec    workload.Spec `json:"spec"`
	Profile bool          `json:"profile"`
}

type childResult struct {
	Report      *workload.Report `json:"report"`
	Fingerprint string           `json:"fingerprint"`
	WallNS      int64            `json:"wallNS"`
	CPUNS       int64            `json:"cpuNS"`
	Allocated   uint64           `json:"allocated"`
	GCCycles    uint32           `json:"gcCycles"`
	MaxRSSKB    int64            `json:"maxRSSKB"`
	Profile     []byte           `json:"profile,omitempty"`
}

// rusage returns the process's CPU time and peak resident set.
func rusage() (cpu time.Duration, maxRSSKB int64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss, nil // Maxrss is in KiB on Linux
}

// child runs the one scenario its request names and writes a childResult
// to standard output.
func child() error {
	var req childRequest
	if err := json.NewDecoder(os.Stdin).Decode(&req); err != nil {
		return fmt.Errorf("child: %w", err)
	}
	var profile bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if req.Profile {
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return err
		}
	}
	cpu0, _, err := rusage()
	if err != nil {
		return err
	}
	t0 := time.Now()
	rep, runErr := workload.Run(req.Spec)
	wall := time.Since(t0)
	cpu1, maxRSS, err := rusage()
	if req.Profile {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	if runErr != nil {
		return runErr
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(childResult{
		Report:      rep,
		Fingerprint: rep.Fingerprint(),
		WallNS:      int64(wall),
		CPUNS:       int64(cpu1 - cpu0),
		Allocated:   m1.TotalAlloc - m0.TotalAlloc,
		GCCycles:    m1.NumGC - m0.NumGC,
		MaxRSSKB:    maxRSS,
		Profile:     profile.Bytes(),
	})
}

// execute runs one scenario in a child process and checks that it
// reconverged to one common digest.
func execute(spec workload.Spec, profile bool) (runStats, error) {
	req, err := json.Marshal(childRequest{Spec: spec, Profile: profile})
	if err != nil {
		return runStats{}, err
	}
	self, err := os.Executable()
	if err != nil {
		return runStats{}, err
	}
	cmd := exec.Command(self, "--child")
	cmd.Stdin = bytes.NewReader(req)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return runStats{}, fmt.Errorf("seed %d: run failed: %w", spec.Seed, err)
	}
	var cr childResult
	if err := json.Unmarshal(out, &cr); err != nil {
		return runStats{}, fmt.Errorf("seed %d: %w", spec.Seed, err)
	}
	rep := cr.Report
	if !rep.Converged || rep.Digest == "" || rep.Digest == "diverged" {
		return runStats{}, fmt.Errorf("seed %d: run did not reconverge (converged=%v, digest %q)",
			spec.Seed, rep.Converged, rep.Digest)
	}
	st := runStats{
		spec:      spec,
		rep:       rep,
		fp:        cr.Fingerprint,
		wall:      time.Duration(cr.WallNS),
		cpu:       time.Duration(cr.CPUNS),
		allocated: cr.Allocated,
		gcCycles:  cr.GCCycles,
		maxRSSMB:  float64(cr.MaxRSSKB) / 1024,
		profile:   cr.Profile,
		pending:   int64(rep.PendingWrites + rep.PendingMail),
	}
	for _, c := range workload.Classes {
		cs := rep.Classes[c]
		st.issued += cs.Issued
		st.skipped += cs.Skipped
		st.completed += cs.Completed
		st.failed += cs.Failed
	}
	for _, s := range rep.Services {
		st.wireBytes += s.BytesOut
	}
	for _, c := range []string{workload.ClassWrite, workload.ClassUpdate} {
		addHist(&st.vis, rep.Classes[c].Hist)
	}
	return st, nil
}

func addHist(dst, src *workload.Histogram) {
	dst.Count += src.Count
	dst.SumUS += src.SumUS
	dst.MaxUS = max(dst.MaxUS, src.MaxUS)
	for i := range dst.Buckets {
		dst.Buckets[i] += src.Buckets[i]
	}
}

// bench holds one benchmark invocation's settings and scratch space.
type bench struct {
	w       workloadDef
	seed    int64
	seconds time.Duration
	dir     string // scratch directory inside the checkout
	runs    int    // store directories handed out so far
}

// spec builds the workload's scenario at a seed, with a fresh store
// directory when the workload is durable.
func (b *bench) spec(seed int64) (workload.Spec, error) {
	if !b.w.durable {
		return b.w.spec(seed, ""), nil
	}
	b.runs++
	dir := filepath.Join(b.dir, fmt.Sprintf("stores-%d", b.runs))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return workload.Spec{}, err
	}
	return b.w.spec(seed, dir), nil
}

// release deletes a finished run's store directory.
func (b *bench) release(spec workload.Spec) error {
	if spec.StoreDir == "" {
		return nil
	}
	return os.RemoveAll(spec.StoreDir)
}

// crossCheck pins the benchmark to the scenario of the repository's
// BenchmarkWorkloadOrgScale/mesh row: at the default seed, mesh-chaos
// must complete the same ops and move the same wire bytes.
func (b *bench) crossCheck(st runStats) error {
	const wantOps, wantBytes = 907, 16663588
	if b.w.name != "mesh-chaos" || st.spec.Seed != defaultSeed {
		return nil
	}
	if st.completed != wantOps || st.wireBytes != wantBytes {
		return fmt.Errorf("mesh-chaos at seed %d: %d ops, %d wire bytes; BenchmarkWorkloadOrgScale/mesh has %d ops, %d bytes",
			defaultSeed, st.completed, st.wireBytes, wantOps, wantBytes)
	}
	return nil
}

// fingerprints enforces that every run of one spec reproduces the same
// report.
type fingerprints map[string]string

func (f fingerprints) check(key string, st runStats) error {
	fp := st.fp
	if prev, ok := f[key]; ok && prev != fp {
		return fmt.Errorf("%s: repeated run changed the report fingerprint (%s, then %s)", key, prev[:12], fp[:12])
	}
	f[key] = fp
	return nil
}

// setupRepeats is how many set-up runs one benchmark run times; it
// reports their median.
const setupRepeats = 5

// endToEnd runs the untraced benchmark: the workload's sub-seeds in turn
// until the measuring time has passed and every sub-seed ran, with
// sub-seed 0 run at least twice, and a set-up run before each of the
// first setupRepeats of them, so that set-up samples spread over the
// whole measuring window.
func (b *bench) endToEnd() (result, error) {
	fps := fingerprints{}
	var setups []float64
	var runs []runStats
	start := time.Now()
	for i := 0; i <= poolSize || time.Since(start) < b.seconds; i++ {
		if i < setupRepeats {
			spec, err := b.spec(b.seed)
			if err != nil {
				return result{}, err
			}
			st, err := execute(setupSpec(spec), false)
			if err != nil {
				return result{}, fmt.Errorf("set-up: %w", err)
			}
			if err := b.release(spec); err != nil {
				return result{}, err
			}
			if err := fps.check("set-up", st); err != nil {
				return result{}, err
			}
			setups = append(setups, st.cpu.Seconds())
			progress("%s set-up: %.2fs wall, %.2fs cpu", b.w.name, st.wall.Seconds(), st.cpu.Seconds())
		}

		spec, err := b.spec(subSeed(b.seed, i%poolSize))
		if err != nil {
			return result{}, err
		}
		st, err := execute(spec, false)
		if err != nil {
			return result{}, err
		}
		if err := b.release(spec); err != nil {
			return result{}, err
		}
		if err := fps.check(fmt.Sprintf("seed %d", spec.Seed), st); err != nil {
			return result{}, err
		}
		if err := b.crossCheck(st); err != nil {
			return result{}, err
		}
		runs = append(runs, st)
		progress("%s seed %d: %d ops in %.2fs wall, %.2fs cpu", b.w.name, spec.Seed, st.completed, st.wall.Seconds(), st.cpu.Seconds())
	}

	// Seeded counts pool over one pass of the sub-seeds; CPU times take
	// the median over every run. Times are CPU, not wall: on a shared VM
	// the wall clock also counts the time the host does not run the
	// process. Attempted and failed ops count that one pass too, so they
	// depend on the seed alone, not on how many repeats fit in the
	// measuring time.
	res := result{Correct: true, Metrics: map[string]metric{}}
	var poolOps, poolBytes int64
	for _, st := range runs[:poolSize] {
		poolOps += st.completed
		poolBytes += st.wireBytes
		res.Attempted += st.attempted()
		res.Failed += st.notDone()
	}
	var cpuPerOp, rss []float64
	for _, st := range runs {
		cpuPerOp = append(cpuPerOp, float64(st.cpu)/float64(time.Millisecond)/float64(st.completed))
		rss = append(rss, st.maxRSSMB)
	}
	res.add("setup_s", median(setups), "s")
	res.add("cpu_ms_per_op", median(cpuPerOp), "ms")
	res.add("peak_rss_mb", median(rss), "MB")
	res.add("wire_bytes_per_op", ratio(float64(poolBytes), float64(poolOps)), "B")
	return res, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

package main

import (
	"sort"
	"strings"
)

// layerOf maps a Go package to the layer its CPU time is charged to.
// Layer names are the repository's module names; the grouping follows the
// engineering viewpoint (rpc = rpc + channel stack + simulated network +
// engineering fabric; wire = frame codec + the JSON body codec).
// Standard-library packages not listed here are transparent: a sample
// whose innermost frames are in sort, strings, reflect, the allocator and
// so on is charged to the nearest listed caller.
var layerOf = map[string]string{
	"mocca/internal/information":          "information",
	"mocca/internal/information/logstore": "logstore",
	"mocca/internal/replica":              "replica",
	"mocca/internal/wire":                 "wire",
	"encoding/json":                       "wire",
	"mocca/internal/rpc":                  "rpc",
	"mocca/internal/channel":              "rpc",
	"mocca/internal/netsim":               "rpc",
	"mocca/internal/engineering":          "rpc",
	"mocca/internal/gossip":               "gossip",
	"mocca/internal/directory":            "directory",
	"mocca/internal/mhs":                  "mhs",
	"mocca/internal/trader":               "trader",
	"mocca/internal/rtc":                  "rtc",
	"mocca/internal/vclock":               "vclock",
	"mocca/internal/observe":              "observe",
	"mocca/internal/placement":            "placement",
	"mocca/internal/workload":             "workload",
	"mocca":                               "deployment",
	"mocca/internal/core":                 "core",
	"mocca/internal/access":               "core",
	"mocca/internal/activity":             "core",
	"mocca/internal/id":                   "core",
	"mocca/internal/org":                  "core",
	"mocca/internal/odp":                  "core",
	"mocca/internal/policy":               "core",
	"mocca/internal/comm":                 "core",
	"mocca/internal/groupware":            "core",
	"mocca/internal/interop":              "core",
	"mocca/internal/transparency":         "core",
}

// layers lists every layer the split reports, runtime (garbage
// collection) included, in output order.
func layers() []string {
	seen := map[string]bool{"runtime": true}
	out := []string{"runtime"}
	for _, l := range layerOf {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

// gcFrame reports whether a frame belongs to the garbage collector:
// background mark workers, mutator assists, sweeping and scavenging.
func gcFrame(fn string) bool {
	if strings.HasPrefix(fn, "runtime.gc") {
		return true
	}
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.markroot", "runtime.scanobject", "runtime.wbBufFlush":
		return true
	}
	return false
}

// merkleFrame reports whether an information-package frame is Merkle
// maintenance or negotiation rather than the object space itself.
func merkleFrame(fn string) bool {
	return strings.Contains(fn, "information.(*DigestTree)") ||
		strings.HasSuffix(fn, "information.MerkleBucket") ||
		strings.HasSuffix(fn, "information.entryHash")
}

// pkgOf extracts the package path from a profile function name such as
// "mocca/internal/replica.(*Replicator).round.func1".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuSplit is a profile's CPU time charged to layers. Every sample lands
// in at most one layer: garbage collection first (wherever it sits on the
// stack), otherwise the innermost frame of a mapped package. Merkle time
// is the part of the information layer whose charged frame is a
// DigestTree method.
type cpuSplit struct {
	total  int64
	layer  map[string]int64
	merkle int64
}

func splitCPU(samples []cpuSample) cpuSplit {
	sp := cpuSplit{layer: make(map[string]int64)}
	for _, s := range samples {
		sp.total += s.cpuNS
		if layer, fn := chargeTo(s.stack); layer != "" {
			sp.layer[layer] += s.cpuNS
			if layer == "information" && merkleFrame(fn) {
				sp.merkle += s.cpuNS
			}
		}
	}
	return sp
}

// chargeTo names the layer a stack is charged to and the frame that
// decided it; "" when no frame belongs to a named layer.
func chargeTo(stack []string) (layer, frame string) {
	for _, fn := range stack {
		if gcFrame(fn) {
			return "runtime", fn
		}
	}
	for _, fn := range stack {
		if l, ok := layerOf[pkgOf(fn)]; ok {
			return l, fn
		}
	}
	return "", ""
}

// share is the fraction of profiled CPU charged to a layer.
func (sp cpuSplit) share(layer string) float64 {
	return ratio(float64(sp.layer[layer]), float64(sp.total))
}

// attributed is the fraction of profiled CPU charged to any named layer.
func (sp cpuSplit) attributed() float64 {
	var sum int64
	for _, v := range sp.layer {
		sum += v
	}
	return ratio(float64(sum), float64(sp.total))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

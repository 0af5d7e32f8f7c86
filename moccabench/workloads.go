package main

import (
	"time"

	"mocca/internal/workload"
)

// defaultSeed is the workload seed the repository's numbers are quoted
// at; heldOutSeed is the seed a performance claim must also hold on.
const (
	defaultSeed = 1992
	heldOutSeed = 2024
)

// poolSize is how many distinct sub-seeds one benchmark run executes:
// sub-seed 0 is the run's own seed, the rest derive from it. Wire bytes
// per op pool over all of them, so a run's figure describes a family of
// organizations rather than one draw.
const poolSize = 5

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name string
	// spec builds the scenario for one seed. storeDir is empty unless
	// durable is set.
	spec    func(seed int64, storeDir string) workload.Spec
	durable bool
	// tail is the write-visibility percentile reported beside the median:
	// the highest one that leaves at least ten samples beyond it at one
	// seed.
	tail float64
}

var workloads = []workloadDef{
	{
		// The spec of BenchmarkWorkloadOrgScale/mesh/sites=16/users=2000.
		name: "mesh-chaos",
		spec: func(seed int64, _ string) workload.Spec {
			return workload.Spec{
				Seed:            seed,
				Sites:           16,
				Users:           2000,
				Duration:        time.Minute,
				OpsPerUserHour:  30,
				Topology:        "mesh",
				Chaos:           &workload.ChaosSpec{Crashes: 1, Partitions: 1},
				ConvergeTimeout: 30 * time.Minute,
			}
		},
		tail: 0.95,
	},
	{
		name: "gossip-durable",
		spec: func(seed int64, storeDir string) workload.Spec {
			return workload.Spec{
				Seed:            seed,
				Sites:           16,
				Users:           2000,
				Duration:        time.Minute,
				OpsPerUserHour:  30,
				Topology:        "gossip",
				StoreDir:        storeDir,
				Chaos:           &workload.ChaosSpec{Crashes: 2, TornTails: 1, Partitions: 1},
				ConvergeTimeout: 30 * time.Minute,
			}
		},
		durable: true,
		tail:    0.95,
	},
	{
		name: "lookup-heavy",
		spec: func(seed int64, _ string) workload.Spec {
			return workload.Spec{
				Seed:            seed,
				Sites:           8,
				Users:           8000,
				Objects:         64,
				Duration:        time.Minute,
				OpsPerUserHour:  30,
				Topology:        "mesh",
				Mix:             workload.Mix{Write: 1, Update: 2, Mail: 30, Dir: 30, Trade: 20, Join: 5, Set: 12},
				ConvergeTimeout: 30 * time.Minute,
			}
		},
		tail: 0.90,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// setupSpec is the workload's scenario with traffic and chaos removed:
// running it synthesizes the organization, builds the deployment, seeds
// the objects and drives them to first convergence. The harness's fixed
// one-minute simulated mail-drain grace on the idle deployment is part of
// every run, so it is part of this one too.
func setupSpec(s workload.Spec) workload.Spec {
	s.Duration = time.Nanosecond
	s.Chaos = nil
	s.Faults = nil
	return s
}

// subSeed derives the i-th workload seed of a run (splitmix64 over the
// run seed), so runs at nearby seeds share no sub-seed.
func subSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	z := uint64(seed) + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

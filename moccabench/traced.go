package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"mocca/internal/workload"
)

// minAttributed is the least share of CPU samples the named layers must
// cover for a traced run's split to count.
const minAttributed = 0.90

// agree checks that tracing did not change what the workload did.
func agree(untraced, traced *workload.Report) error {
	for _, c := range workload.Classes {
		u, t := untraced.Classes[c], traced.Classes[c]
		if u.Issued != t.Issued || u.Completed != t.Completed || u.Failed != t.Failed {
			return fmt.Errorf("%s: traced run issued/completed/failed %d/%d/%d, untraced %d/%d/%d",
				c, t.Issued, t.Completed, t.Failed, u.Issued, u.Completed, u.Failed)
		}
	}
	return nil
}

// counters sums each telemetry metric over its sites.
func counters(rep *workload.Report) map[string]float64 {
	out := make(map[string]float64)
	for _, p := range rep.Telemetry.Metrics {
		out[p.Name] += float64(p.Value)
	}
	return out
}

// perLayer runs the traced benchmark at the run's seed: untraced and
// traced runs in pairs until the measuring time has passed, a CPU profile
// over the traced runs, the telemetry counters of the traced run, and
// timed probes into each layer shaped by the workload.
func (b *bench) perLayer() (result, error) {
	fps := fingerprints{}
	var untraced, traced []runStats
	var samples []cpuSample
	var kept workload.Spec // last traced durable run, for the recovery probe
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < b.seconds; i++ {
		spec, err := b.spec(b.seed)
		if err != nil {
			return result{}, err
		}
		u, err := execute(spec, false)
		if err != nil {
			return result{}, err
		}
		if err := b.release(spec); err != nil {
			return result{}, err
		}
		if err := fps.check("untraced", u); err != nil {
			return result{}, err
		}
		if err := b.crossCheck(u); err != nil {
			return result{}, err
		}

		tspec, err := b.spec(b.seed)
		if err != nil {
			return result{}, err
		}
		tspec.Telemetry = true
		t, err := execute(tspec, true)
		if err != nil {
			return result{}, fmt.Errorf("traced: %w", err)
		}
		if err := fps.check("traced", t); err != nil {
			return result{}, err
		}
		if err := agree(u.rep, t.rep); err != nil {
			return result{}, err
		}
		decoded, err := decodeCPUProfile(t.profile)
		if err != nil {
			return result{}, err
		}
		samples = append(samples, decoded...)
		if err := b.release(kept); err != nil {
			return result{}, err
		}
		kept = tspec
		untraced = append(untraced, u)
		traced = append(traced, t)
		progress("%s seed %d: untraced %.2fs, traced %.2fs, %d profile samples", b.w.name, b.seed,
			u.wall.Seconds(), t.wall.Seconds(), len(decoded))
	}

	split := splitCPU(samples)
	if got := split.attributed(); got < minAttributed {
		return result{}, fmt.Errorf("named layers cover %.1f%% of CPU samples, want at least %.0f%%",
			100*got, 100*minAttributed)
	}

	// Every pair repeats one spec (the fingerprints are equal), so the
	// first untraced run gives the attempted and failed ops: they depend
	// on the seed alone, not on how many pairs fit in the measuring time.
	u, t := untraced[0], traced[0]
	res := result{Correct: true, Attempted: u.attempted(), Failed: u.notDone(), Metrics: map[string]metric{}}
	ctr := counters(t.rep)

	// CPU split of the traced runs.
	for _, l := range layers() {
		switch l {
		case "information":
			res.add("information.merkle_cpu_share", ratio(float64(split.merkle), float64(split.total)), "ratio")
			res.add("information.space_cpu_share", ratio(float64(split.layer[l]-split.merkle), float64(split.total)), "ratio")
		case "runtime":
			res.add("runtime.gc_cpu_share", split.share(l), "ratio")
		default:
			res.add(l+".cpu_share", split.share(l), "ratio")
		}
	}
	res.add("profile.attributed_share", split.attributed(), "ratio")

	// Workload outcome: the failures, and the write-visibility lag the
	// replication layer delivers (simulated time).
	res.add("workload.ops_failed_ratio", ratio(float64(u.notDone()), float64(u.attempted())), "ratio")
	res.add("workload.pending_mail", float64(u.rep.PendingMail), "count")
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	res.add("replica.write_vis_p50_ms", ms(u.vis.Quantile(0.5)), "ms")
	res.add("replica.write_vis_tail_ms", ms(u.vis.Quantile(b.w.tail)), "ms")
	res.add("replica.write_vis_mean_ms", ratio(float64(u.vis.SumUS), float64(u.vis.Count))/1000, "ms")
	res.add("replica.write_vis_samples", float64(u.vis.Count), "count")

	// Replication, codec, rpc, store and gossip counters (summed over
	// sites) from the traced run.
	exchanges := ctr["mocca.sync.merkle_exchanges"]
	res.add("replica.rounds", ctr["mocca.sync.rounds"], "count")
	res.add("replica.merkle_exchanges", exchanges, "count")
	res.add("replica.converged_root_ratio", ratio(ctr["mocca.sync.converged_roots"], exchanges), "ratio")
	res.add("replica.digest_bytes_per_exchange", ratio(ctr["mocca.sync.digest_bytes"], exchanges), "B")
	res.add("replica.peer_failures", ctr["mocca.sync.peer_failures"], "count")
	res.add("replica.applied", ctr["mocca.sync.applied"], "count")
	res.add("wire.bytes_per_frame", ratio(ctr["mocca.channels.bytes_out"], ctr["mocca.channels.frames_out"]), "B")
	res.add("rpc.calls", ctr["mocca.rpc.calls_sent"], "count")
	res.add("rpc.timeouts", ctr["mocca.rpc.timeouts"], "count")
	res.add("rpc.remote_errors", ctr["mocca.rpc.remote_errors"], "count")
	res.add("netsim.frames", ctr["mocca.net.sent"], "count")
	res.add("netsim.dropped", ctr["mocca.net.dropped"], "count")
	res.add("logstore.appends", ctr["mocca.store.appends"], "count")
	res.add("logstore.bytes_per_append", ratio(ctr["mocca.store.appended_bytes"], ctr["mocca.store.appends"]), "B")
	res.add("logstore.compactions", ctr["mocca.store.compactions"], "count")
	res.add("logstore.fsyncs", ctr["mocca.store.fsyncs"], "count")
	res.add("gossip.rumors_published", ctr["mocca.gossip.rumors_published"], "count")
	res.add("gossip.fetch_useful_ratio", ratio(ctr["mocca.gossip.rumor_applied"], ctr["mocca.gossip.rumor_fetches"]), "ratio")
	res.add("gossip.bytes_share", ratio(float64(t.rep.Services["gossip"].BytesOut), float64(t.wireBytes)), "ratio")
	res.add("observe.spans", float64(t.rep.Telemetry.Traces.Spans), "count")

	// Wall-clock throughput, runtime and tracing cost, from the untraced
	// runs against the traced ones.
	var opsPerS, allocKB, gcs, uw, tw []float64
	for i := range untraced {
		opsPerS = append(opsPerS, float64(untraced[i].completed)/untraced[i].wall.Seconds())
		allocKB = append(allocKB, float64(untraced[i].allocated)/1024/float64(untraced[i].completed))
		gcs = append(gcs, float64(untraced[i].gcCycles))
		uw = append(uw, untraced[i].wall.Seconds())
		tw = append(tw, traced[i].wall.Seconds())
	}
	res.add("workload.ops_per_s", median(opsPerS), "1/s")
	res.add("runtime.alloc_kb_per_op", median(allocKB), "KiB")
	res.add("runtime.gc_cycles", median(gcs), "count")
	res.add("observe.overhead_pct", 100*(median(tw)/median(uw)-1), "%")

	if err := b.probe(&res, t, ctr, kept); err != nil {
		return result{}, err
	}
	return res, b.release(kept)
}

// probe times calls into each layer's public functions, shaped by the
// traced run: its final object count, its mean delta batch, its users.
func (b *bench) probe(res *result, t runStats, ctr map[string]float64, kept workload.Spec) error {
	spec := t.rep.Spec // with the workload's defaults filled in
	deltas := ctr["mocca.sync.merkle_exchanges"] - ctr["mocca.sync.converged_roots"]
	sh := probeShape{
		sites:   spec.Sites,
		users:   spec.Users,
		units:   spec.OrgUnits,
		objects: t.rep.Objects,
		batch:   max(1, int(math.Round(ratio(ctr["mocca.sync.applied"], deltas)))),
	}
	progress("probes: %d sites, %d users, %d objects, delta batch of %d", sh.sites, sh.users, sh.objects, sh.batch)

	upToDate, behind, err := probeNewerThanHW(sh)
	if err != nil {
		return err
	}
	res.add("information.newer_than_hw_us", micros(upToDate), "us")
	res.add("information.newer_than_hw_behind_us", micros(behind), "us")
	apply, err := probeApplyRemote(sh)
	if err != nil {
		return err
	}
	res.add("information.apply_remote_us", micros(apply), "us")
	enc, dec, err := probeBodyCodec(sh)
	if err != nil {
		return err
	}
	res.add("wire.body_encode_us", micros(enc), "us")
	res.add("wire.body_decode_us", micros(dec), "us")
	rt, err := probeRoundTrip()
	if err != nil {
		return err
	}
	res.add("rpc.roundtrip_us", micros(rt), "us")
	app, err := probeAppend(b.dir, sh)
	if err != nil {
		return err
	}
	res.add("logstore.append_us", micros(app), "us")

	// Recovery opens the torn site's directory a durable run left behind;
	// in-memory workloads get a crashed store of their object count.
	var src string
	if kept.StoreDir != "" {
		for _, f := range t.rep.Spec.Faults {
			if f.Kind == "tornwal" {
				src = filepath.Join(kept.StoreDir, f.Site)
			}
		}
		if src == "" {
			return fmt.Errorf("%s: traced run has no torn-WAL site to recover", b.w.name)
		}
	} else if src, err = crashedStore(b.dir, sh); err != nil {
		return err
	}
	rec, err := probeRecovery(b.dir, src)
	if err != nil {
		return err
	}
	res.add("logstore.recovery_ms", float64(rec)/float64(time.Millisecond), "ms")
	search, err := probeSearch(sh)
	if err != nil {
		return err
	}
	res.add("directory.search_us", micros(search), "us")
	return nil
}

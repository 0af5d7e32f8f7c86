package mocca

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mocca/internal/engineering"
	"mocca/internal/gossip"
	"mocca/internal/information/logstore"
	"mocca/internal/netsim"
	"mocca/internal/observe"
	"mocca/internal/placement"
	"mocca/internal/replica"
	"mocca/internal/rpc"
)

// TestTraceLinksWriteAcrossSites is the telemetry plane's acceptance
// test: one trace id follows a write from a non-placed site through the
// placement forward rpc, the holder's WAL commit, and the anti-entropy
// delivery at a second placed site — with every span parented onto the
// hop that caused it.
func TestTraceLinksWriteAcrossSites(t *testing.T) {
	dep := NewDeployment(
		WithSeed(29),
		WithTelemetry(),
		WithDurableStore(t.TempDir()),
		WithPlacement(placement.ByField("context", "vault", "s0", "s2")),
	)
	s0 := dep.AddSite("s0", "s0.net")
	s1 := dep.AddSite("s1", "s1.net")
	s2 := dep.AddSite("s2", "s2.net")

	// The write lands at s1, which the policy does not place for the
	// space: it must forward to a placed holder and keep no copy.
	obj, err := s1.Space().Put("ada", SharedSchemaName, map[string]string{
		"title": "routed secret", "context": "vault",
	})
	if err != nil {
		t.Fatal(err)
	}
	dep.Run()

	if n := s1.Space().Len(); n != 0 {
		t.Fatalf("writer site still holds %d foreign rows", n)
	}
	for _, s := range []*Site{s0, s2} {
		if _, err := s.Space().Get("ada", obj.ID); err != nil {
			t.Fatalf("holder %s missing the object: %v", s.Name, err)
		}
	}

	// Find the root: the write:put span at s1 for this object.
	spans := dep.Traces()
	byName := func(name, site string) *observe.Span {
		for i := range spans {
			if spans[i].Name == name && (site == "" || spans[i].Site == site) {
				return &spans[i]
			}
		}
		return nil
	}
	root := byName("write:put", "s1")
	if root == nil {
		t.Fatalf("no write root span; spans: %v", spanNames(spans))
	}
	trace := root.TraceID

	// Every hop of the chain is in the same trace.
	forward := byName("placement.forward", "s1")
	call := byName("rpc.call:"+placement.MethodWrite, "")
	serve := byName("rpc.serve:"+placement.MethodWrite, "")
	commit := byName("wal.commit", "s0")
	apply := byName("sync.apply", "s2")
	for _, tc := range []struct {
		what string
		sp   *observe.Span
	}{
		{"placement.forward", forward},
		{"rpc.call", call},
		{"rpc.serve", serve},
		{"wal.commit@s0", commit},
		{"sync.apply@s2", apply},
	} {
		if tc.sp == nil {
			t.Fatalf("missing %s span; spans: %v", tc.what, spanNames(spans))
		}
		if tc.sp.TraceID != trace {
			t.Fatalf("%s span in trace %x, want %x", tc.what, tc.sp.TraceID, trace)
		}
	}

	// And the parenting mirrors causality: put → forward → call → serve,
	// with the holder-side WAL commit and the second site's apply both
	// children of the serve span that carried the object in.
	if forward.Parent != root.SpanID {
		t.Fatalf("forward parent = %x, want write root %x", forward.Parent, root.SpanID)
	}
	if call.Parent != forward.SpanID {
		t.Fatalf("call parent = %x, want forward %x", call.Parent, forward.SpanID)
	}
	if serve.Parent != call.SpanID {
		t.Fatalf("serve parent = %x, want call %x", serve.Parent, call.SpanID)
	}
	if commit.Parent != serve.SpanID {
		t.Fatalf("wal.commit parent = %x, want serve %x", commit.Parent, serve.SpanID)
	}
	if apply.Parent != serve.SpanID {
		t.Fatalf("sync.apply parent = %x, want serve %x", apply.Parent, serve.SpanID)
	}

	// The Chrome export of the run is a single valid JSON object with
	// one complete event per span.
	var buf bytes.Buffer
	if err := dep.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	complete := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			complete++
		}
	}
	if complete != len(spans) {
		t.Fatalf("chrome export has %d complete events for %d spans", complete, len(spans))
	}
}

// TestTelemetryMetricsProjectSubsystemStats: the adapter collectors
// surface the run's existing counters under stable dotted names, and
// the registry's text exposition carries them.
func TestTelemetryMetricsProjectSubsystemStats(t *testing.T) {
	dep := NewDeployment(WithSeed(7), WithTelemetry(), WithDurableStore(t.TempDir()))
	s0 := dep.AddSite("s0", "s0.net")
	dep.AddSite("s1", "s1.net")
	if _, err := s0.Space().Put("ada", SharedSchemaName, map[string]string{"title": "x"}); err != nil {
		t.Fatal(err)
	}
	dep.Run()

	snap := dep.Metrics().Snapshot()
	if v := snap.Value("mocca.sync.rounds", observe.L("site", "s0")...); v == 0 {
		t.Fatalf("no sync rounds projected: %+v", snap.Points)
	}
	if v := snap.Value("mocca.store.appends", observe.L("site", "s0")...); v == 0 {
		t.Fatalf("no WAL appends projected")
	}
	if v := snap.Value("mocca.net.delivered"); v == 0 {
		t.Fatalf("no network counters projected")
	}
	// The projection must agree with the source snapshot — the adapter
	// reads the same counters, it does not double-count.
	if want := s0.Replicator().Stats().Rounds; snap.Value("mocca.sync.rounds", observe.L("site", "s0")...) != want {
		t.Fatalf("sync.rounds diverged from replica.Stats")
	}

	var buf bytes.Buffer
	if err := snap.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE mocca_sync_rounds counter",
		`mocca_sync_rounds{site="s0"}`,
		"mocca_net_delivered",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestMetricsExportEveryStatsField: the collector is derived from the
// Stats structs, so every exported field of every struct it reads shows
// up in the text exposition under its derived name and kind — a counter
// added to any of them is exported without anyone editing a list. The
// names dashboards and the benchmark harness read are pinned too, so the
// derivation cannot silently rename one.
func TestMetricsExportEveryStatsField(t *testing.T) {
	dep := NewDeployment(WithSeed(7), WithTelemetry(), WithDurableStore(t.TempDir()), WithGossip())
	s0 := dep.AddSite("s0", "s0.net")
	dep.AddSite("s1", "s1.net")
	if _, err := s0.Space().Put("ada", SharedSchemaName, map[string]string{"title": "x"}); err != nil {
		t.Fatal(err)
	}
	dep.Run()
	var buf bytes.Buffer
	if err := dep.Metrics().Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, src := range []struct {
		prefix string
		stats  any
	}{
		{"mocca.sync", replica.Stats{}},
		{"mocca.placement", placement.ReaderStats{}},
		{"mocca.placement", placement.ReadServerStats{}},
		{"mocca.gossip", gossip.Stats{}},
		{"mocca.store", logstore.Stats{}},
		{"mocca.rpc", rpc.Stats{}},
		{"mocca.net", netsim.Stats{}},
		{"mocca.channels", engineering.FabricTotals{}},
		{"mocca.trace", observe.TraceCounts{}},
	} {
		typ := reflect.TypeOf(src.stats)
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			name, kind := observe.MetricName(f)
			want := "# TYPE " + strings.ReplaceAll(src.prefix+"."+name, ".", "_") + " " + string(kind) + "\n"
			if !strings.Contains(text, want) {
				t.Errorf("%s.%s not exported: missing %q", typ, f.Name, want)
			}
		}
	}

	const counter, gauge = "counter", "gauge"
	for name, kind := range map[string]string{
		"mocca.sync.rounds": counter, "mocca.sync.peer_syncs": counter,
		"mocca.sync.peer_failures": counter, "mocca.sync.applied": counter,
		"mocca.sync.pushed": counter, "mocca.sync.conflicts": counter,
		"mocca.sync.served_digests": counter, "mocca.sync.digest_bytes": counter,
		"mocca.sync.merkle_exchanges": counter, "mocca.sync.converged_roots": counter,
		"mocca.sync.scoped_trees": gauge,

		"mocca.placement.reads": counter, "mocca.placement.reads_served": counter,
		"mocca.placement.read_attempts": counter, "mocca.placement.no_holder": counter,
		"mocca.placement.negative_hits": counter, "mocca.placement.forwards": counter,
		"mocca.placement.forwarded": counter, "mocca.placement.remote_reads_served": counter,
		"mocca.placement.remote_reads_missed": counter, "mocca.placement.writes_accepted": counter,
		"mocca.placement.writes_refused": counter,

		"mocca.gossip.rounds": counter, "mocca.gossip.rumors_published": counter,
		"mocca.gossip.rumors_forwarded": counter, "mocca.gossip.rumors_seen": counter,
		"mocca.gossip.rumor_fetches": counter, "mocca.gossip.rumor_applied": counter,
		"mocca.gossip.active_view": gauge, "mocca.gossip.passive_view": gauge,

		"mocca.store.appends": counter, "mocca.store.appended_bytes": counter,
		"mocca.store.compactions": counter, "mocca.store.fsyncs": counter,
		"mocca.store.flushes": counter, "mocca.store.flushed_records": counter,
		"mocca.store.segments": gauge,

		"mocca.rpc.calls_sent": counter, "mocca.rpc.calls_served": counter,
		"mocca.rpc.timeouts": counter, "mocca.rpc.remote_errors": counter,

		"mocca.net.sent": counter, "mocca.net.delivered": counter, "mocca.net.dropped": counter,
		"mocca.net.blocked": counter, "mocca.net.bytes": counter,

		"mocca.channels.open": gauge, "mocca.channels.frames_out": counter,
		"mocca.channels.frames_in": counter, "mocca.channels.bytes_out": counter,
		"mocca.channels.bytes_in": counter, "mocca.channels.discards_in": counter,

		"mocca.trace.traces": counter, "mocca.trace.spans": counter, "mocca.trace.retained": gauge,
		"mocca.trace.evicted": counter, "mocca.trace.slow_spans": counter,
	} {
		want := "# TYPE " + strings.ReplaceAll(name, ".", "_") + " " + kind + "\n"
		if !strings.Contains(text, want) {
			t.Errorf("missing %q", want)
		}
	}
}

// TestStatsSnapshotsRaceWithTraffic is the torn-read hammer (run under
// -race): every Stats surface in the deployment — replica, placement,
// store, gossip, rpc, network, fabric, tracer — is snapshotted
// concurrently with live traffic via the registry collectors, plus the
// span ring via Traces(). Lock-protected snapshots make this silent;
// any torn read trips the race detector.
func TestStatsSnapshotsRaceWithTraffic(t *testing.T) {
	dep := NewDeployment(
		WithSeed(11),
		WithTelemetry(),
		WithDurableStore(t.TempDir()),
		WithGossip(),
	)
	sites := []*Site{
		dep.AddSite("s0", "s0.net"),
		dep.AddSite("s1", "s1.net"),
		dep.AddSite("s2", "s2.net"),
	}
	dep.Run()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := dep.Metrics().Snapshot()
				_ = snap.Value("mocca.sync.rounds", observe.L("site", "s0")...)
				_ = dep.Traces()
				_ = dep.Fabric().Totals()
				_ = dep.Network().Stats()
				for _, s := range sites {
					_ = s.Replicator().Stats()
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if _, err := sites[i%len(sites)].Space().Put("ada", SharedSchemaName,
			map[string]string{"title": "hammer " + string(rune('a'+i))}); err != nil {
			t.Fatal(err)
		}
		dep.Run()
	}
	close(done)
	wg.Wait()

	if err := dep.ReconcileChannels(); err != nil {
		t.Fatal(err)
	}
}

func spanNames(spans []observe.Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Site + "/" + sp.Name
	}
	return out
}

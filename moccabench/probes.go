package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mocca"
	"mocca/internal/directory"
	"mocca/internal/information"
	"mocca/internal/information/logstore"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// probeBudget is the wall time each probe spends calling its layer.
const probeBudget = 200 * time.Millisecond

// perCall times fn in batches of n calls until probeBudget has passed
// (and at least five batches ran) and returns the median per-call time.
// fn gets a running call index so it can rotate over its inputs; prepare,
// when not nil, runs untimed before each batch.
func perCall(n int, prepare func() error, fn func(i int) error) (time.Duration, error) {
	var batches []time.Duration
	start := time.Now()
	for call := 0; len(batches) < 5 || time.Since(start) < probeBudget; {
		if prepare != nil {
			if err := prepare(); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		for j := 0; j < n; j++ {
			if err := fn(call); err != nil {
				return 0, err
			}
			call++
		}
		batches = append(batches, time.Since(t0)/time.Duration(n))
	}
	sort.Slice(batches, func(i, j int) bool { return batches[i] < batches[j] })
	return batches[len(batches)/2], nil
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// probeShape is what the probes take from the workload they follow.
type probeShape struct {
	sites   int
	users   int
	units   int
	objects int // final object count of the traced run
	batch   int // mean objects per non-converged anti-entropy exchange
}

// siteName matches the workload's site naming.
func siteName(i int) string { return fmt.Sprintf("s%03d", i) }

// probeObject is a wire object shaped like the workload's documents: the
// four interchange fields and a two-writer version vector.
func probeObject(i, sites int, counter uint64) information.WireObject {
	owner, other := siteName(i%sites), siteName((i+1)%sites)
	return information.WireObject{
		ID:     fmt.Sprintf("obj-%06d", i),
		Schema: "mocca-interchange",
		Owner:  fmt.Sprintf("u%05d", i),
		Site:   owner,
		Fields: map[string]string{
			"title":   fmt.Sprintf("note %d", i),
			"body":    fmt.Sprintf("rev %d by u%05d", counter, i),
			"author":  fmt.Sprintf("u%05d", i),
			"context": fmt.Sprintf("act%03d", i%32),
		},
		VV:      vclock.Version{owner: counter, other: 1},
		Created: 1_000_000_000 * int64(i),
		Updated: 1_000_000_000 * int64(i+1),
	}
}

// probeNewerThanHW times DigestTree.NewerThanHW over a tree holding the
// workload's final object count, against high-water marks that are up to
// date (nothing to send) and one write behind (one row to send).
func probeNewerThanHW(sh probeShape) (upToDate, behind time.Duration, err error) {
	tree := information.NewDigestTree()
	counters := make(map[string]uint64)
	var last string
	for i := 0; i < sh.objects; i++ {
		s := siteName(i % sh.sites)
		counters[s]++
		tree.Update(fmt.Sprintf("obj-%06d", i), vclock.Version{s: counters[s]})
		last = s
	}
	hw := tree.HighWater()
	lag := tree.HighWater()
	lag[last]--
	upToDate, err = perCall(16, nil, func(int) error {
		if got := tree.NewerThanHW(hw); len(got) != 0 {
			return fmt.Errorf("probe: NewerThanHW at the high water returned %d ids", len(got))
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	behind, err = perCall(16, nil, func(int) error {
		if got := tree.NewerThanHW(lag); len(got) != 1 {
			return fmt.Errorf("probe: NewerThanHW one write behind returned %d ids", len(got))
		}
		return nil
	})
	return upToDate, behind, err
}

// probeApplyRemote times Space.ApplyRemote of a causally newer version of
// an existing object, over a space holding the workload's object count.
func probeApplyRemote(sh probeShape) (time.Duration, error) {
	sp := information.NewSpace(information.NewSchemaRegistry(), nil,
		vclock.NewSimulated(time.Unix(0, 0).UTC()), information.WithSite(siteName(0)))
	for i := 0; i < sh.objects; i++ {
		if _, _, err := sp.ApplyRemote(information.FromWire(probeObject(i, sh.sites, 1))); err != nil {
			return 0, err
		}
	}
	return perCall(64, nil, func(i int) error {
		obj := information.FromWire(probeObject(i%sh.objects, sh.sites, uint64(2+i/sh.objects)))
		changed, _, err := sp.ApplyRemote(obj)
		if err == nil && !changed {
			err = errors.New("probe: newer remote version not applied")
		}
		return err
	})
}

// probeBodyCodec times the JSON body codec on one anti-entropy delta
// batch of the workload's mean size.
func probeBodyCodec(sh probeShape) (encode, decode time.Duration, err error) {
	batch := make([]information.WireObject, sh.batch)
	for i := range batch {
		batch[i] = probeObject(i, sh.sites, 3)
	}
	blob, err := wire.EncodeBody(batch)
	if err != nil {
		return 0, 0, err
	}
	encode, err = perCall(16, nil, func(int) error {
		_, err := wire.EncodeBody(batch)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	decode, err = perCall(16, nil, func(int) error {
		var out []information.WireObject
		if err := wire.DecodeBody(blob, &out); err != nil {
			return err
		}
		if len(out) != len(batch) {
			return fmt.Errorf("probe: decoded %d of %d objects", len(out), len(batch))
		}
		return nil
	})
	return encode, decode, err
}

// probeRoundTrip times one JSON rpc call between two service endpoints
// of a fresh deployment whose links have zero latency: channel stack,
// envelope codec, body codec and simulated delivery, both ways.
func probeRoundTrip() (time.Duration, error) {
	type echo struct {
		Seq  int    `json:"seq"`
		Note string `json:"note"`
	}
	dep := mocca.NewDeployment(mocca.WithDefaultLink(0, 0))
	client := dep.ServiceEndpoint("probe-client")
	server := dep.ServiceEndpoint("probe-server")
	server.MustRegister("probe.echo", rpc.HandleJSON(func(_ netsim.Address, req echo) (echo, error) {
		return req, nil
	}))
	clock := dep.Clock()
	return perCall(32, nil, func(i int) error {
		var callErr error
		done := false
		client.GoJSON(server.Addr(), "probe.echo", echo{Seq: i, Note: "status report"}, func(r rpc.Result) {
			var resp echo
			callErr = r.Decode(&resp)
			if callErr == nil && resp.Seq != i {
				callErr = fmt.Errorf("probe: echo %d answered %d", i, resp.Seq)
			}
			done = true
		})
		for !done {
			at, ok := clock.NextDeadline()
			if !ok {
				return errors.New("probe: rpc call never completed")
			}
			clock.AdvanceTo(at)
		}
		return callErr
	})
}

// probeAppend times one logstore Exec that stores a new row, on a fresh
// store per batch (batches stay below the automatic flush threshold).
func probeAppend(dir string, sh probeShape) (time.Duration, error) {
	var store *logstore.Store
	closeStore := func() error {
		if store == nil {
			return nil
		}
		err := store.Close()
		store = nil
		return err
	}
	defer closeStore()
	batch := 0
	return perCall(256, func() error {
		if err := closeStore(); err != nil {
			return err
		}
		batch++
		var err error
		store, err = logstore.Open(filepath.Join(dir, fmt.Sprintf("append-%d", batch)))
		return err
	}, func(i int) error {
		obj := information.FromWire(probeObject(i, sh.sites, 1))
		_, err := store.Exec(obj.ID, func(*information.Object) (*information.Object, error) { return obj, nil })
		return err
	})
}

// probeRecovery times logstore.Open over a copy of a store directory a
// crashed process left behind. Each call opens a fresh copy, because
// recovery truncates torn tails in place; copying and closing are not
// timed.
func probeRecovery(dir, src string) (time.Duration, error) {
	var store *logstore.Store
	closeStore := func() error {
		if store == nil {
			return nil
		}
		err := errors.Join(store.Close(), os.RemoveAll(store.Dir()))
		store = nil
		return err
	}
	defer closeStore()
	copies := 0
	var dst string
	return perCall(1, func() error {
		if err := closeStore(); err != nil {
			return err
		}
		copies++
		dst = filepath.Join(dir, fmt.Sprintf("recover-%d", copies))
		return copyDir(src, dst)
	}, func(int) error {
		var err error
		if store, err = logstore.Open(dst); err == nil && store.Len() == 0 {
			err = errors.New("probe: recovered store is empty")
		}
		return err
	})
}

// crashedStore writes the workload's object count into a fresh durable
// store and leaves a copy of its directory as a process death would: WAL
// written, never closed. It stands in for the post-crash site directory
// on workloads whose sites keep their replicas in memory.
func crashedStore(dir string, sh probeShape) (string, error) {
	live := filepath.Join(dir, "crash-live")
	store, err := logstore.Open(live)
	if err != nil {
		return "", err
	}
	for i := 0; i < sh.objects; i++ {
		obj := information.FromWire(probeObject(i, sh.sites, 1))
		if _, err := store.Exec(obj.ID, func(*information.Object) (*information.Object, error) { return obj, nil }); err != nil {
			store.Close()
			return "", err
		}
	}
	crashed := filepath.Join(dir, "crash-image")
	if err := copyDir(live, crashed); err != nil {
		store.Close()
		return "", err
	}
	return crashed, store.Close()
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// probeSearch times a subtree search for one user by common name under
// the user's org unit, over a DIT holding the workload's users: the
// request the workload's dir.lookup op sends to the DSA.
func probeSearch(sh probeShape) (time.Duration, error) {
	dit := directory.NewDIT()
	add := func(dn string, attrs directory.Attributes) error {
		parsed, err := directory.ParseDN(dn)
		if err != nil {
			return err
		}
		return dit.Add(parsed, attrs)
	}
	if err := add("o=mocca", directory.Attributes{"o": {"mocca"}}); err != nil {
		return 0, err
	}
	for i := 0; i < sh.units; i++ {
		unit := fmt.Sprintf("ou%03d", i)
		if err := add("ou="+unit+",o=mocca", directory.Attributes{"ou": {unit}}); err != nil {
			return 0, err
		}
	}
	reqs := make([]directory.SearchRequest, sh.users)
	for i := range reqs {
		name, site, unit := fmt.Sprintf("u%05d", i), siteName(i%sh.sites), fmt.Sprintf("ou%03d", i%sh.units)
		attrs := directory.Attributes{"cn": {name}, "site": {site}, "mail": {name + "@" + site + ".example"}}
		if err := add("cn="+name+",ou="+unit+",o=mocca", attrs); err != nil {
			return 0, err
		}
		base, err := directory.ParseDN("ou=" + unit + ",o=mocca")
		if err != nil {
			return 0, err
		}
		filter, err := directory.ParseFilter("(cn=" + name + ")")
		if err != nil {
			return 0, err
		}
		reqs[i] = directory.SearchRequest{Base: base, Scope: directory.ScopeSubtree, Filter: filter, SizeLimit: 8}
	}
	// Rotate with a stride coprime to the user count so consecutive
	// searches hit different units and subtrees.
	return perCall(8, nil, func(i int) error {
		got, err := dit.Search(reqs[(i*7919)%len(reqs)])
		if err == nil && len(got) != 1 {
			err = fmt.Errorf("probe: search found %d entries", len(got))
		}
		return err
	})
}

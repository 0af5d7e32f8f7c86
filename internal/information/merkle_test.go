package information

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"mocca/internal/vclock"
)

// rebuildTree builds a fresh tree from scratch over the same entries —
// the recovery-equivalence oracle for the incremental maintenance.
func rebuildTree(entries map[string]vclock.Version) *DigestTree {
	t := NewDigestTree()
	for id, vv := range entries {
		t.Update(id, vv)
	}
	return t
}

func TestDigestTreeIncrementalMatchesRebuild(t *testing.T) {
	tree := NewDigestTree()
	state := make(map[string]vclock.Version)
	for i := 0; i < 500; i++ {
		id := fmt.Sprintf("info-%04d", i)
		vv := vclock.Version{"s0": uint64(i%3 + 1), "s1": uint64(i % 2)}
		tree.Update(id, vv)
		state[id] = vv.Clone()
	}
	// Mutate some, remove some.
	for i := 0; i < 500; i += 7 {
		id := fmt.Sprintf("info-%04d", i)
		vv := state[id].Clone().Tick("s1")
		tree.Update(id, vv)
		state[id] = vv
	}
	for i := 0; i < 500; i += 13 {
		id := fmt.Sprintf("info-%04d", i)
		tree.Remove(id)
		delete(state, id)
	}
	if got, want := tree.Count(), len(state); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	rebuilt := rebuildTree(state)
	if tree.Root() != rebuilt.Root() {
		t.Fatal("incremental root diverged from rebuild")
	}
	if !reflect.DeepEqual(tree.HighWater(), rebuilt.HighWater()) {
		t.Fatalf("high water %v, rebuild %v", tree.HighWater(), rebuilt.HighWater())
	}
	// The incrementally maintained counter index and a rebuilt one
	// answer every high-water query alike.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		hw := map[string]uint64{}
		for _, s := range []string{"s0", "s1", "s2"} {
			if rng.Intn(4) > 0 {
				hw[s] = uint64(rng.Intn(6))
			}
		}
		if got, want := tree.NewerThanHW(hw), rebuilt.NewerThanHW(hw); !slices.Equal(got, want) {
			t.Fatalf("hw %v: incremental %v, rebuild %v", hw, got, want)
		}
	}
}

// scanNewerThanHW is the reference NewerThanHW: a walk over every entry
// of every bucket, kept only as the oracle for the counter index.
func scanNewerThanHW(t *DigestTree, hw map[string]uint64) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []string
	for b := range t.buckets {
		for id, e := range t.buckets[b] {
			for _, p := range e.vv {
				if p.c > hw[p.site] {
					out = append(out, id)
					break
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestDigestTreeNewerThanHWMatchesScan drives the counter index through
// thousands of random operations — forward updates with shuffled
// counters, concurrent overwrites, stale updates the tree must ignore,
// removes and re-adds — and checks NewerThanHW against the reference
// scan under marks that are empty, missing sites, ahead of the tree,
// one write behind, and random.
func TestDigestTreeNewerThanHWMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1992))
	sites := []string{"s0", "s1", "s2", "s3", "s4"}
	tree := NewDigestTree()
	state := make(map[string]vclock.Version) // what the tree should hold
	removed := make(map[string]vclock.Version)
	ids := make([]string, 300)
	for i := range ids {
		ids[i] = fmt.Sprintf("obj-%04d", i)
	}
	check := func(step int, hw map[string]uint64) {
		t.Helper()
		got, want := tree.NewerThanHW(hw), scanNewerThanHW(tree, hw)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d, hw %v:\n got %v\nwant %v", step, hw, got, want)
		}
	}
	for step := 0; step < 6000; step++ {
		id := ids[rng.Intn(len(ids))]
		cur, ok := state[id]
		switch op := rng.Intn(10); {
		case op < 5: // forward: tick a site by a random stride
			vv := vclock.Version{}
			if ok {
				vv = cur.Clone()
			}
			vv[sites[rng.Intn(len(sites))]] += uint64(1 + rng.Intn(4))
			tree.Update(id, vv)
			state[id] = vv
			delete(removed, id)
		case op < 6 && ok: // concurrent overwrite: a vector on other sites
			vv := vclock.Version{}
			for _, s := range sites {
				if _, mine := cur[s]; !mine && rng.Intn(2) == 0 {
					vv[s] = uint64(1 + rng.Intn(8))
				}
			}
			if len(vv) == 0 {
				continue
			}
			tree.Update(id, vv)
			state[id] = vv
		case op < 7 && ok: // stale: a vector the entry dominates
			vv := cur.Clone()
			for s := range vv {
				if vv[s] > 0 && rng.Intn(2) == 0 {
					vv[s]--
				}
			}
			tree.Update(id, vv)
		case op < 8 && ok:
			tree.Remove(id)
			removed[id] = cur
			delete(state, id)
		case op < 9: // re-add a removed entry at its old counters
			vv, gone := removed[id]
			if !gone {
				continue
			}
			tree.Update(id, vv)
			state[id] = vv
			delete(removed, id)
		}
		if step%7 != 0 {
			continue
		}
		high := tree.HighWater()
		check(step, nil)
		check(step, high)
		behind := tree.HighWater()
		s := sites[rng.Intn(len(sites))]
		if behind[s] > 0 {
			behind[s]--
		}
		check(step, behind)
		delete(behind, sites[rng.Intn(len(sites))])
		check(step, behind)
		ahead := map[string]uint64{}
		for s, c := range high {
			ahead[s] = c + 5
		}
		check(step, ahead)
		random := map[string]uint64{}
		for _, s := range sites {
			if rng.Intn(3) > 0 {
				random[s] = uint64(rng.Intn(int(high[s]) + 2))
			}
		}
		check(step, random)
	}
	if tree.Count() != len(state) {
		t.Fatalf("count = %d, want %d", tree.Count(), len(state))
	}
	if rebuilt := rebuildTree(state); tree.Root() != rebuilt.Root() {
		t.Fatal("tree diverged from its model state")
	}
	for id, vv := range state {
		if got := tree.LeafDigest(MerkleBucket(id))[id]; !reflect.DeepEqual(got, vv) {
			t.Fatalf("%s: stored vector %v, want %v", id, got, vv)
		}
	}
}

// TestDigestTreeConcurrentQueries runs high-water queries alongside
// writers, so the race detector sees the read path and the tail merge
// it takes under the write lock.
func TestDigestTreeConcurrentQueries(t *testing.T) {
	tree := NewDigestTree()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				id := fmt.Sprintf("obj-%d-%04d", w, (i*7919)%1000)
				tree.Update(id, vclock.Version{fmt.Sprintf("s%d", w): uint64(i + 1)})
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				hw := tree.HighWater()
				for s := range hw {
					hw[s] /= 2
				}
				tree.NewerThanHW(hw)
			}
		}()
	}
	wg.Wait()
	hw := map[string]uint64{"s0": 1000}
	if got, want := tree.NewerThanHW(hw), scanNewerThanHW(tree, hw); !slices.Equal(got, want) {
		t.Fatalf("after concurrent use: got %d ids, want %d", len(got), len(want))
	}
}

func TestDigestTreeOrderIndependence(t *testing.T) {
	a, b := NewDigestTree(), NewDigestTree()
	vvs := map[string]vclock.Version{
		"x": {"s0": 2}, "y": {"s1": 1}, "z": {"s0": 1, "s1": 3},
	}
	for _, id := range []string{"x", "y", "z"} {
		a.Update(id, vvs[id])
	}
	for _, id := range []string{"z", "x", "y"} {
		b.Update(id, vvs[id])
	}
	if a.Root() != b.Root() {
		t.Fatal("insertion order changed the root")
	}
	// A stale update (dominated vector) must not regress the tree.
	b.Update("x", vclock.Version{"s0": 1})
	if a.Root() != b.Root() {
		t.Fatal("dominated update regressed the root")
	}
	// Divergence is visible; re-convergence restores equality.
	b.Update("x", vclock.Version{"s0": 3})
	if a.Root() == b.Root() {
		t.Fatal("divergent trees compare equal")
	}
	a.Update("x", vclock.Version{"s0": 3})
	if a.Root() != b.Root() {
		t.Fatal("re-converged trees differ")
	}
}

func TestDigestTreeEmptyTreesAgree(t *testing.T) {
	if NewDigestTree().Root() != NewDigestTree().Root() {
		t.Fatal("empty roots differ")
	}
	tr := NewDigestTree()
	tr.Update("a", vclock.Version{"s0": 1})
	tr.Remove("a")
	if tr.Root() != NewDigestTree().Root() {
		t.Fatal("emptied tree differs from fresh tree")
	}
}

func TestDigestTreeDescentFindsDivergentLeaf(t *testing.T) {
	a, b := NewDigestTree(), NewDigestTree()
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("obj-%04d", i)
		a.Update(id, vclock.Version{"s0": 1})
		b.Update(id, vclock.Version{"s0": 1})
	}
	changed := "obj-0042"
	a.Update(changed, vclock.Version{"s0": 2})

	// Walk the mismatch from the root: exactly one child per level
	// differs, ending at the changed id's bucket.
	level, index := uint32(0), uint32(0)
	for int(level) < MerkleDepth {
		ca, cb := a.Children(level, index), b.Children(level, index)
		diff := -1
		for j := range ca {
			if ca[j] != cb[j] {
				if diff >= 0 {
					t.Fatalf("level %d: more than one divergent child", level)
				}
				diff = j
			}
		}
		if diff < 0 {
			t.Fatalf("level %d node %d: no divergent child under a root mismatch", level, index)
		}
		index = index*MerkleFanout + uint32(diff)
		level++
	}
	if index != MerkleBucket(changed) {
		t.Fatalf("descent ended at bucket %d, want %d", index, MerkleBucket(changed))
	}
	if _, ok := a.LeafDigest(index)[changed]; !ok {
		t.Fatal("leaf digest misses the changed id")
	}
}

func TestDigestTreeHighWater(t *testing.T) {
	tr := NewDigestTree()
	tr.Update("a", vclock.Version{"s0": 3})
	tr.Update("b", vclock.Version{"s0": 1, "s1": 5})
	hw := tr.HighWater()
	if hw["s0"] != 3 || hw["s1"] != 5 {
		t.Fatalf("hw = %v", hw)
	}
	ids := tr.NewerThanHW(map[string]uint64{"s0": 2, "s1": 5})
	if len(ids) != 1 || ids[0] != "a" {
		t.Fatalf("NewerThanHW = %v, want [a]", ids)
	}
	if got := tr.NewerThanHW(hw); len(got) != 0 {
		t.Fatalf("NewerThanHW(own hw) = %v, want none", got)
	}
}

func TestSpaceTreeFollowsCommitsAndRecovery(t *testing.T) {
	registry := NewSchemaRegistry()
	if err := registry.Register(Schema{Name: "doc", Fields: []Field{
		{Name: "title", Type: FieldText, Required: true},
	}}); err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewSimulated(time.Unix(0, 0))
	a := NewSpace(registry, nil, clk, WithSite("s0"))
	b := NewSpace(registry, nil, clk, WithSite("s1"))

	obj, err := a.Put("ada", "doc", map[string]string{"title": "one"})
	if err != nil {
		t.Fatal(err)
	}
	if a.Tree().Root() == b.Tree().Root() {
		t.Fatal("write did not move the root")
	}
	if _, _, err := b.ApplyRemote(obj); err != nil {
		t.Fatal(err)
	}
	if a.Tree().Root() != b.Tree().Root() {
		t.Fatal("converged replicas disagree on the root")
	}

	// A Space opened over the same backend state rebuilds the same tree —
	// the recovery contract.
	reopened := NewSpace(registry, nil, clk, WithSite("s0"), WithBackend(backendOf(a)))
	if reopened.Tree().Root() != a.Tree().Root() {
		t.Fatal("rebuilt tree differs from the incremental one")
	}

	// Drop removes the entry from the tree.
	if _, err := a.Drop(obj.ID); err != nil {
		t.Fatal(err)
	}
	if a.Tree().Count() != 0 || a.Tree().Root() != NewDigestTree().Root() {
		t.Fatal("drop left tree state behind")
	}
}

// backendOf exposes a space's backend for the reopen test.
func backendOf(s *Space) Backend { return s.store }

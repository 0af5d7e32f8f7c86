package information

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"mocca/internal/vclock"
)

// benchSites is the writer-site count of the DigestTree ladder, the
// workload's organisation size.
const benchSites = 16

func benchID(i int) string   { return fmt.Sprintf("obj-%07d", i) }
func benchSite(i int) string { return fmt.Sprintf("s%03d", i%benchSites) }

// inOrderTree holds n rows whose per-site counters ascend with the id, as
// a single writer per site produces them; next is each site's last
// counter.
func inOrderTree(n int) (*DigestTree, map[string]uint64) {
	t, next := NewDigestTree(), make(map[string]uint64)
	for i := 0; i < n; i++ {
		s := benchSite(i)
		next[s]++
		t.Update(benchID(i), vclock.Version{s: next[s]})
	}
	return t, next
}

// shuffledTree holds n rows inserted in id order, as Space open and a
// scoped-tree rebuild insert them, with per-site counters drawn from a
// seeded permutation — so each site's counters arrive out of order.
// counters[i] is row i's counter.
func shuffledTree(n int) (*DigestTree, []uint64) {
	counters := make([]uint64, n)
	for i, p := range rand.New(rand.NewSource(1992)).Perm(n) {
		counters[i] = uint64(p + 1)
	}
	t := NewDigestTree()
	for i := 0; i < n; i++ {
		t.Update(benchID(i), vclock.Version{benchSite(i): counters[i]})
	}
	return t, counters
}

// BenchmarkDigestTree is the Merkle layer's ladder at 10⁴, 10⁵ and 10⁶
// rows:
//
//   - Update/in-order rewrites a row with its site's next counter (the
//     in-order index path); Update/shuffled raises a row's counter by
//     one in permutation order, so records land out of counter order;
//   - NewerThanHW/at-high-water queries with the tree's own marks (the
//     converged exchange); NewerThanHW/one-behind queries with one
//     site's mark one write behind (one row to send);
//   - rebuild/shuffled builds an n-row tree in id order with shuffled
//     counters and asks one one-behind query, which pays the index's
//     lazy sort — the cost of Space open and of a scoped-tree rebuild.
//
// Each size's trees are dropped before the next size is built, so the
// 10⁶ rungs hold one tree at a time.
func BenchmarkDigestTree(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("rows=%d/rebuild/shuffled", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t, _ := shuffledTree(n)
				hw := t.HighWater()
				hw[benchSite(0)]--
				if got := t.NewerThanHW(hw); len(got) != 1 {
					b.Fatalf("one-behind query returned %d ids", len(got))
				}
			}
		})

		// The shared trees are built on first use, so a filtered run
		// builds only what it measures.
		var shuffled *DigestTree
		var counters []uint64
		b.Run(fmt.Sprintf("rows=%d/Update/shuffled", n), func(b *testing.B) {
			if shuffled == nil {
				shuffled, counters = shuffledTree(n)
			}
			perm := rand.New(rand.NewSource(2024)).Perm(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := perm[i%n]
				counters[j]++
				shuffled.Update(benchID(j), vclock.Version{benchSite(j): counters[j]})
			}
		})
		shuffled, counters = nil, nil
		runtime.GC()

		var ordered *DigestTree
		var next map[string]uint64
		orderedTree := func() *DigestTree {
			if ordered == nil {
				ordered, next = inOrderTree(n)
			}
			return ordered
		}
		b.Run(fmt.Sprintf("rows=%d/Update/in-order", n), func(b *testing.B) {
			t := orderedTree()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % n
				s := benchSite(j)
				next[s]++
				t.Update(benchID(j), vclock.Version{s: next[s]})
			}
		})
		b.Run(fmt.Sprintf("rows=%d/NewerThanHW/at-high-water", n), func(b *testing.B) {
			t := orderedTree()
			hw := t.HighWater()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := t.NewerThanHW(hw); len(got) != 0 {
					b.Fatalf("at-high-water query returned %d ids", len(got))
				}
			}
		})
		b.Run(fmt.Sprintf("rows=%d/NewerThanHW/one-behind", n), func(b *testing.B) {
			t := orderedTree()
			hw := t.HighWater()
			hw[benchSite(0)]--
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := t.NewerThanHW(hw); len(got) != 1 {
					b.Fatalf("one-behind query returned %d ids", len(got))
				}
			}
		})
		ordered, next = nil, nil
		runtime.GC()
	}
}

package information

import (
	"cmp"
	"hash/fnv"
	"slices"
	"sync"

	"mocca/internal/vclock"
)

// The Merkle digest tree summarises a replica's id→version-vector digest
// so anti-entropy rounds stop shipping the full digest: converged
// replicas compare one root hash, divergent ones descend only the
// mismatched subtrees. The tree structure is a protocol constant — every
// replica buckets ids the same way — so hashes compare across sites.
const (
	// MerkleFanout is the number of children per internal node.
	MerkleFanout = 16
	// MerkleDepth is the number of levels below the root; nodes at level
	// MerkleDepth are the leaves.
	MerkleDepth = 3
	// MerkleLeaves is the leaf count, MerkleFanout^MerkleDepth.
	MerkleLeaves = 4096
)

// MerkleBucket maps an object id to its leaf bucket. The assignment is a
// pure function of the id, so every replica files the same object under
// the same leaf.
func MerkleBucket(id string) uint32 {
	// FNV-1a over the id's bytes, inline so the lookup allocates nothing.
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return uint32(h & (MerkleLeaves - 1))
}

// merkleEntry is one object's contribution to its leaf: the entry hash
// (folded into the leaf by XOR) plus the version vector it was computed
// from, kept so updates can be ordered and the counter index can tell
// live records from stale ones without store access. The vector is held
// as a slice of pairs, a few dozen bytes instead of a map's few hundred,
// which more than pays for the index's record per (entry, site) pair.
type merkleEntry struct {
	hash uint64
	vv   []siteCounter
}

// siteCounter is one site's counter in an entry's version vector.
type siteCounter struct {
	site string
	c    uint64
}

// counter returns the entry's counter for site s; ok is false when the
// vector has no element for s.
func (e merkleEntry) counter(s string) (c uint64, ok bool) {
	for _, p := range e.vv {
		if p.site == s {
			return p.c, true
		}
	}
	return 0, false
}

// covers reports whether the entry's vector has seen every write vv
// records — vclock's Compare is After or Equal.
func (e merkleEntry) covers(vv vclock.Version) bool {
	for s, c := range vv {
		if cur, _ := e.counter(s); c > cur {
			return false
		}
	}
	return true
}

// version rebuilds the entry's vector as a vclock.Version.
func (e merkleEntry) version() vclock.Version {
	out := make(vclock.Version, len(e.vv))
	for _, p := range e.vv {
		out[p.site] = p.c
	}
	return out
}

// entryHash hashes one (id, version-vector) pair. The vector is encoded
// canonically (vclock.AppendBinary, sorted sites), so equal object states
// hash equally at every replica.
func entryHash(id string, vv vclock.Version) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	h.Write([]byte{0})
	h.Write(vv.AppendBinary(nil))
	return h.Sum64()
}

// DigestTree is the incremental Merkle summary of a replica's digest.
// Leaves fold their entries with XOR (so an entry update is O(1) on the
// leaf), internal nodes hash their children, and every mutation
// recomputes only the root path — O(MerkleDepth·MerkleFanout) hash work
// per commit. It also tracks per-site high-water marks (the maximum
// counter any entry records per site), the fast path the sync protocol
// uses to spot single-writer progress without descending the tree.
//
// Behind the marks sits a per-site counter index (siteLog): one small
// (counter, id) record per (entry, site) pair, so NewerThanHW costs
// O(sites) when the peer is level and O(k log n) when it is k rows
// behind, instead of a scan of every entry. The index costs memory per
// (entry, site) pair: a 24-byte record, plus stale records up to the
// live count before the log compacts.
//
// The tree is storage-agnostic and rebuilt from Backend.Range when a
// Space opens over recovered state, so a durable replica re-enters
// anti-entropy with the exact root it crashed with.
type DigestTree struct {
	mu      sync.RWMutex
	buckets [MerkleLeaves]map[string]merkleEntry
	levels  [][]uint64 // levels[0] = [root], levels[MerkleDepth] = leaves
	sites   map[string]*siteLog
	count   int
	gen     uint64
}

// siteRec is one index record: the entry id had counter c for the
// log's site when the record was appended. A record is live while the
// entry still exists with that counter; otherwise it is stale, and
// queries skip it until compaction drops it.
type siteRec struct {
	c  uint64
	id string
}

// siteLog is one site's slice of the counter index: an append log
// sorted lazily. recs[:sorted] is ascending by counter; recs[sorted:]
// is the unsorted tail, which queries scan directly while it is short
// and merge into the prefix once it is not. Appends in counter order
// extend the sorted prefix at O(1); a rebuild in id order (shuffled
// counters) only appends, and pays one O(n log n) sort at its first
// query. Stale records are never searched for: Update and Remove only
// count them, and the log compacts once they outnumber live ones.
type siteLog struct {
	hw     uint64 // the site's high-water mark; monotone, survives Remove
	recs   []siteRec
	sorted int
	live   int // entries whose vector records a nonzero counter here
}

// NewDigestTree creates an empty tree with all internal hashes computed,
// so two empty replicas compare equal from the first round.
func NewDigestTree() *DigestTree {
	t := &DigestTree{sites: make(map[string]*siteLog)}
	t.levels = make([][]uint64, MerkleDepth+1)
	size := 1
	for l := 0; l <= MerkleDepth; l++ {
		t.levels[l] = make([]uint64, size)
		size *= MerkleFanout
	}
	for l := MerkleDepth - 1; l >= 0; l-- {
		for i := range t.levels[l] {
			t.levels[l][i] = t.hashChildrenLocked(l, uint32(i))
		}
	}
	return t
}

// hashChildrenLocked hashes the MerkleFanout children of node (level,
// index) into the node's hash. Internal nodes use a positional hash (not
// XOR) so a change in any leaf avalanches up to the root.
func (t *DigestTree) hashChildrenLocked(level int, index uint32) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	base := index * MerkleFanout
	for j := uint32(0); j < MerkleFanout; j++ {
		c := t.levels[level+1][base+j]
		buf[0] = byte(c >> 56)
		buf[1] = byte(c >> 48)
		buf[2] = byte(c >> 40)
		buf[3] = byte(c >> 32)
		buf[4] = byte(c >> 24)
		buf[5] = byte(c >> 16)
		buf[6] = byte(c >> 8)
		buf[7] = byte(c)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// recomputePathLocked recomputes every internal node on the path from
// leaf bucket b up to the root.
func (t *DigestTree) recomputePathLocked(b uint32) {
	idx := b
	for l := MerkleDepth - 1; l >= 0; l-- {
		idx /= MerkleFanout
		t.levels[l][idx] = t.hashChildrenLocked(l, idx)
	}
	t.gen++
}

// Update records the object's current version vector. A call whose
// vector the stored entry already dominates is ignored — the commit it
// describes lost a store-level race to a newer one — so tree state can
// never regress behind the store under concurrent writers.
func (t *DigestTree) Update(id string, vv vclock.Version) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := MerkleBucket(id)
	if t.buckets[b] == nil {
		t.buckets[b] = make(map[string]merkleEntry)
	}
	cur, existed := t.buckets[b][id]
	if existed {
		if cur.covers(vv) {
			return
		}
		t.levels[MerkleDepth][b] ^= cur.hash
	} else {
		t.count++
	}
	e := merkleEntry{hash: entryHash(id, vv), vv: make([]siteCounter, 0, len(vv))}
	for s, c := range vv {
		e.vv = append(e.vv, siteCounter{site: s, c: c})
	}
	t.buckets[b][id] = e
	t.levels[MerkleDepth][b] ^= e.hash
	for _, p := range e.vv {
		if prev, _ := cur.counter(p.site); p.c != prev {
			t.moveLocked(p.site, id, prev, p.c)
		}
	}
	for _, p := range cur.vv {
		if _, ok := e.counter(p.site); !ok && p.c != 0 {
			t.moveLocked(p.site, id, p.c, 0)
		}
	}
	t.recomputePathLocked(b)
}

// Remove drops the object's entry (a no-op for unknown ids). High-water
// marks are deliberately monotone and survive removals: they are a
// fast-path heuristic the root hash verifies, never a correctness gate.
func (t *DigestTree) Remove(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := MerkleBucket(id)
	cur, ok := t.buckets[b][id]
	if !ok {
		return
	}
	delete(t.buckets[b], id)
	t.count--
	t.levels[MerkleDepth][b] ^= cur.hash
	for _, p := range cur.vv {
		if p.c != 0 {
			t.moveLocked(p.site, id, p.c, 0)
		}
	}
	t.recomputePathLocked(b)
}

// moveLocked re-indexes entry id on site s after its counter there
// changed from `from` to `to` (0 = absent). The entry map must already
// hold the new state, since compaction judges records against it.
func (t *DigestTree) moveLocked(s, id string, from, to uint64) {
	l := t.sites[s]
	if l == nil {
		l = &siteLog{}
		t.sites[s] = l
	}
	if from == 0 {
		l.live++
	}
	if to == 0 {
		l.live--
	} else {
		l.hw = max(l.hw, to)
		if l.sorted == len(l.recs) && (l.sorted == 0 || l.recs[l.sorted-1].c <= to) {
			l.sorted++
		}
		l.recs = append(l.recs, siteRec{c: to, id: id})
	}
	if len(l.recs) > 2*l.live {
		t.compactLocked(s, l)
	}
}

// liveLocked reports whether record r still describes its entry's
// counter on site s.
func (t *DigestTree) liveLocked(s string, r siteRec) bool {
	e, ok := t.buckets[MerkleBucket(r.id)][r.id]
	if !ok {
		return false
	}
	c, _ := e.counter(s)
	return c == r.c
}

// compactLocked drops the stale records of site s's log, keeping the
// survivors in order. The same (counter, id) pair can be appended twice
// — a Remove and re-add, or a concurrent overwrite and its repair, that
// land on an old counter — and both copies then pass the liveness check;
// a survivor count above the live count detects that, and a full sort
// removes the duplicates.
func (t *DigestTree) compactLocked(s string, l *siteLog) {
	kept, sorted := l.recs[:0], 0
	for i, r := range l.recs {
		if t.liveLocked(s, r) {
			if i < l.sorted {
				sorted++
			}
			kept = append(kept, r)
		}
	}
	clear(l.recs[len(kept):])
	l.recs, l.sorted = kept, sorted
	if len(kept) > l.live {
		slices.SortFunc(kept, func(a, b siteRec) int {
			return cmp.Or(cmp.Compare(a.c, b.c), cmp.Compare(a.id, b.id))
		})
		l.recs = slices.Compact(kept)
		l.sorted = len(l.recs)
	}
}

// tailTooLong reports whether the unsorted tail has outgrown a linear
// scan: past √n records, a query merges it into the sorted prefix.
func (l *siteLog) tailTooLong() bool {
	m := len(l.recs) - l.sorted
	return m > 32 && m*m > len(l.recs)
}

// merge sorts the tail and merges it into the prefix from the back, so
// only prefix records above the tail's least counter move.
func (l *siteLog) merge() {
	tail := l.recs[l.sorted:]
	slices.SortFunc(tail, func(a, b siteRec) int { return cmp.Compare(a.c, b.c) })
	if l.sorted > 0 && l.recs[l.sorted-1].c > tail[0].c {
		buf := slices.Clone(tail)
		i, j := l.sorted-1, len(buf)-1
		for w := len(l.recs) - 1; j >= 0; w-- {
			if i >= 0 && l.recs[i].c > buf[j].c {
				l.recs[w] = l.recs[i]
				i--
			} else {
				l.recs[w] = buf[j]
				j--
			}
		}
	}
	l.sorted = len(l.recs)
}

// above returns the index of the first sorted record whose counter
// exceeds h.
func (l *siteLog) above(h uint64) int {
	lo, hi := 0, l.sorted
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.recs[mid].c > h {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Root returns the root hash — equal roots mean (up to hash collision)
// equal digests.
func (t *DigestTree) Root() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.levels[0][0]
}

// NodeHash returns the hash of node (level, index); ok is false for
// positions outside the tree.
func (t *DigestTree) NodeHash(level, index uint32) (uint64, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(level) >= len(t.levels) || int(index) >= len(t.levels[level]) {
		return 0, false
	}
	return t.levels[level][index], true
}

// Children returns the hashes of the MerkleFanout children of internal
// node (level, index), or nil when the node is a leaf or out of range.
func (t *DigestTree) Children(level, index uint32) []uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(level) >= MerkleDepth || int(index) >= len(t.levels[level]) {
		return nil
	}
	base := index * MerkleFanout
	out := make([]uint64, MerkleFanout)
	copy(out, t.levels[level+1][base:base+MerkleFanout])
	return out
}

// LeafDigest returns the id→version-vector digest of one leaf bucket —
// the scoped digest a divergent leaf exchanges instead of the full one.
func (t *DigestTree) LeafDigest(bucket uint32) map[string]vclock.Version {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if bucket >= MerkleLeaves || len(t.buckets[bucket]) == 0 {
		return nil
	}
	out := make(map[string]vclock.Version, len(t.buckets[bucket]))
	for id, e := range t.buckets[bucket] {
		out[id] = e.version()
	}
	return out
}

// HighWater returns a copy of the per-site high-water marks: for each
// site, the maximum counter any entry's vector records.
func (t *DigestTree) HighWater() map[string]uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[string]uint64, len(t.sites))
	for s, l := range t.sites {
		out[s] = l.hw
	}
	return out
}

// NewerThanHW returns the ids (sorted, deterministic) whose vectors
// record a counter past the given high-water marks — rows a replica with
// those marks has certainly not seen. The converse does not hold (a row
// below the marks can still be missing), which is why the protocol
// verifies with a root compare afterwards.
//
// The cost follows how far the peer is behind, not the tree's size.
// When no site's mark exceeds the peer's, the answer is empty after
// O(sites) compares: a mark is the maximum counter over every entry and
// never falls, so no entry can be past the peer's marks. Otherwise each
// site that is ahead yields its records past the peer's mark from the
// counter index — a binary search plus the k matching records, O(k log
// n) with the final sort — and the per-site ids are merged and
// de-duplicated. The only allocation is the returned slice.
func (t *DigestTree) NewerThanHW(hw map[string]uint64) []string {
	t.mu.RLock()
	ahead, merged := false, true
	for s, l := range t.sites {
		if l.hw > hw[s] {
			ahead = true
			merged = merged && !l.tailTooLong()
		}
	}
	if !ahead {
		t.mu.RUnlock()
		return nil
	}
	if merged {
		defer t.mu.RUnlock()
		return t.newerLocked(hw)
	}
	// A long unsorted tail is merged under the write lock; queries that
	// find every tail short stay concurrent readers.
	t.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	for s, l := range t.sites {
		if l.hw > hw[s] && l.tailTooLong() {
			l.merge()
		}
	}
	return t.newerLocked(hw)
}

// newerLocked collects the live records past hw from every site that is
// ahead of it; the caller holds t.mu in either mode.
func (t *DigestTree) newerLocked(hw map[string]uint64) []string {
	n := 0
	for s, l := range t.sites {
		if h := hw[s]; l.hw > h {
			n += len(l.recs) - l.above(h)
		}
	}
	out := make([]string, 0, n)
	for s, l := range t.sites {
		h := hw[s]
		if l.hw <= h {
			continue
		}
		for i := l.above(h); i < len(l.recs); i++ {
			if r := l.recs[i]; (i < l.sorted || r.c > h) && t.liveLocked(s, r) {
				out = append(out, r.id)
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Count returns the number of entries.
func (t *DigestTree) Count() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.count
}

// Generation returns a counter bumped by every structural change — the
// cheap staleness check for caches derived from this tree.
func (t *DigestTree) Generation() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.gen
}

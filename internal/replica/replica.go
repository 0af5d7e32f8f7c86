// Package replica makes the information model genuinely multi-site: each
// site hosts its own information.Space replica, and Replicators keep the
// replicas convergent with a push-pull anti-entropy protocol run as an
// rpc service.
//
// The digest exchange is a Merkle negotiation, and it is the only
// anti-entropy protocol: each round opens with a root-hash compare over
// the space's incremental digest tree (information.DigestTree) plus
// per-site high-water marks. A converged pair exchanges one tiny
// message; a divergent pair first repairs whatever the high-water marks
// explain (the single-writer fast path), then descends only the
// mismatched subtrees and exchanges id→version-vector digests for the
// divergent leaves alone — so digest bytes are O(1) when converged and
// O(log n · changed) when not. No exchange ever ships the whole-space
// digest: replica.sync refuses a request that names no leaf buckets.
//
// Because every exchange is an rpc interrogation, sync traffic traverses
// the engineering channel stack like all other traffic in the repository:
// it is traced, counted in the fabric's per-channel statistics, and
// fault-injectable through channel interceptors. Nothing about
// replication bypasses the engineering viewpoint.
//
// Rounds are idle-aware so a simulation drains to quiescence: a
// replicator goes dormant once a round moves no data and re-arms on local
// writes (via a Space subscription), on SyncNow (e.g. after a partition
// heals), and while rounds keep failing — up to a failure cap, so an
// unreachable peer cannot keep the event loop spinning forever.
//
// In the viewpoint map (ARCHITECTURE.md) this package belongs to the
// information viewpoint — it defines what replica convergence means —
// while borrowing all of its machinery from the engineering viewpoint.
// It is storage-agnostic: digests and deltas come from whatever
// information.Backend the space runs over, so a site recovered from the
// durable logstore re-enters anti-entropy with correct digests and pulls
// only the writes it missed.
package replica

import (
	"errors"
	"sort"
	"strconv"
	"sync"
	"time"

	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/observe"
	"mocca/internal/placement"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// RPC method names of the anti-entropy protocol.
const (
	// MethodSync is the final, narrow step of a digest negotiation: the
	// caller sends its digest for the divergent Merkle leaf buckets named
	// in Scope, the peer answers with its own digest for those buckets
	// plus every object in them the caller has not fully seen (the delta
	// pull, folded into the same interrogation). A request without a
	// Scope is refused with ErrUnscopedSync.
	MethodSync = "replica.sync"
	// MethodPush delivers objects the caller holds that the peer's digest
	// had not seen — the push half that lets one round converge a pair.
	MethodPush = "replica.push"
	// MethodDigest is the Merkle negotiation: the caller offers tree-node
	// frames (root first), the peer answers with the children of every
	// frame that mismatches its own tree — plus, on the opening frame,
	// its high-water marks and the rows the caller's marks prove missing.
	MethodDigest = "replica.digest"
)

// Tunables.
const (
	// DefaultInterval separates anti-entropy rounds while armed.
	DefaultInterval = time.Second
	// DefaultSyncTimeout bounds each peer exchange so a dead peer degrades
	// the round instead of stalling it; anti-entropy itself is the retry.
	DefaultSyncTimeout = 800 * time.Millisecond
	// DefaultFailureCap is how many consecutive all-failing rounds a
	// replicator attempts before going dormant until re-armed.
	DefaultFailureCap = 8
)

// ErrUnscopedSync refuses a replica.sync request that names no Merkle
// leaf buckets: the whole-space digest it would ask for is O(n) to
// build and ship, and no replicator sends one.
var ErrUnscopedSync = errors.New("replica: sync request names no leaf buckets")

// wireObject is the JSON form of an information.Object on the sync wire
// (shared with the placement remote-read protocol).
type wireObject = information.WireObject

func toWire(o *information.Object) wireObject   { return information.ToWire(o) }
func fromWire(w wireObject) *information.Object { return information.FromWire(w) }

type syncReq struct {
	Site   string                    `json:"site"`
	Digest map[string]vclock.Version `json:"digest"`
	// Scope restricts the exchange to the named Merkle leaf buckets: the
	// digest covers only rows filed under them and the responder answers
	// with its own scoped digest and deltas. An empty Scope is refused.
	Scope []uint32 `json:"scope,omitempty"`
}

type syncResp struct {
	// Site names the responding replica, so the caller can filter its
	// push half by the responder's placement interest set.
	Site   string                    `json:"site"`
	Digest map[string]vclock.Version `json:"digest"`
	Deltas []wireObject              `json:"deltas,omitempty"`
}

// wireRelation is one relationship edge on the wire. Migration pushes
// carry the edges touching the migrated rows, so a de-placed replica's
// share of the relationship graph moves with its rows.
type wireRelation struct {
	From string `json:"from"`
	Kind string `json:"kind"`
	To   string `json:"to"`
}

type pushReq struct {
	Site    string       `json:"site"`
	Objects []wireObject `json:"objects"`
	// Relations rides along on migration pushes only; ordinary sync
	// pushes leave it empty.
	Relations []wireRelation `json:"relations,omitempty"`
}

// digestReq opens or continues a Merkle digest negotiation. Frames is a
// wire.AppendTreeFrames encoding of the caller's tree nodes at the
// current frontier (the root on the opening call). HW carries the
// caller's per-site high-water marks on the opening call only.
type digestReq struct {
	Site   string `json:"site"`
	Frames []byte `json:"frames"`
	// HW is present (possibly empty, but non-nil) exactly on the opening
	// call — deliberately NOT omitempty, because an empty-replica caller
	// sends an empty map and still needs the responder's marks and
	// fast-path deltas (the bulk late-join repair). A nil HW marks a
	// follow-up step (verify/descent).
	HW map[string]uint64 `json:"hw"`
}

// digestResp answers a negotiation step: Match reports that every
// offered frame agreed; otherwise Frames carries the responder's
// children of each mismatched internal node. On the opening call the
// responder also returns its high-water marks and — when the roots
// differ — the rows the caller's marks prove it has never seen (the
// fast-path delta, placement-scoped like any other delta).
type digestResp struct {
	Site   string            `json:"site"`
	Match  bool              `json:"match"`
	Frames []byte            `json:"frames,omitempty"`
	HW     map[string]uint64 `json:"hw,omitempty"`
	Deltas []wireObject      `json:"deltas,omitempty"`
}

type pushResp struct {
	Applied   int `json:"applied"`
	Conflicts int `json:"conflicts"`
	// Refused lists object ids the receiver did not accept (not placed
	// there, or the apply failed). A migrating pusher must keep its copy
	// of these rows.
	Refused []string `json:"refused,omitempty"`
}

// Stats counts a replicator's activity. The digest/delta counters make
// the cost of every round — and the savings of partial replication —
// observable without packet inspection: ScopeFiltered counts rows
// placement keeps out of peers' digest trees, RefusedApplies counts
// objects peers offered that this site is not placed for.
type Stats struct {
	Rounds        int64 // anti-entropy rounds initiated
	PeerSyncs     int64 // successful peer exchanges
	PeerFailures  int64 // peer exchanges that timed out or errored
	Applied       int64 // remote objects merged in by rounds we initiated
	Pushed        int64 // objects pushed to peers
	Conflicts     int64 // concurrent updates this replica resolved
	ServedDigests int64 // replica.sync requests served
	ServedApplied int64 // objects applied on behalf of pushing peers

	DigestEntriesSent int64 // digest entries shipped in sync requests
	DeltasServed      int64 // objects shipped in sync responses
	RefusedApplies    int64 // offered objects this site is not placed for
	Migrated          int64 // rows pushed off this replica by migration
	Evicted           int64 // rows dropped locally after migration

	// Merkle negotiation counters. DigestBytes is the digest payload cost
	// this replicator initiated, both directions: tree frames, high-water
	// maps and id→version-vector entries (full or scoped) — data deltas
	// and pushes are not digest bytes. ConvergedRoots counts opening root
	// compares that matched outright (the O(1) converged round).
	MerkleExchanges int64 // peer exchanges that ran the digest negotiation
	ConvergedRoots  int64 // opening root compares that matched
	DescentCalls    int64 // subtree-descent negotiation steps sent
	HWFastDeltas    int64 // rows repaired straight off the high-water marks
	DigestBytes     int64 // digest payload bytes exchanged (sent + received)
	// ScopeFiltered is a gauge, not a counter: the rows placement is
	// currently keeping out of the cached per-peer digest trees (summed
	// over peers), recomputed at each Stats snapshot.
	ScopeFiltered int64 `metric:",gauge"`
	// ScopedTrees is a gauge: how many per-site scoped digest trees are
	// cached right now — bounded by the peer set plus a little slack.
	ScopedTrees int `metric:",gauge"`

	// Per-round observability (gauges): the last completed round's digest
	// size and data movement (sum over its peer exchanges).
	LastRoundDigestEntries int `metric:",gauge"`
	LastRoundDigestBytes   int `metric:",gauge"`
	LastRoundDescentDepth  int `metric:",gauge"`
	LastRoundDeltas        int `metric:",gauge"`
	LastRoundPushed        int `metric:",gauge"`
}

// Option configures a Replicator.
type Option func(*Replicator)

// WithSyncTimeout bounds each peer exchange.
func WithSyncTimeout(d time.Duration) Option {
	return func(r *Replicator) { r.timeout = d }
}

// WithFailureCap sets how many consecutive failing rounds run before the
// replicator goes dormant until re-armed.
func WithFailureCap(n int) Option {
	return func(r *Replicator) { r.failureCap = n }
}

// WithPlacement installs the placement policy that scopes this replica's
// sync traffic: deltas and pushes toward a peer are filtered to the
// objects the peer's site is placed for, and applies of objects this
// site is not placed for are refused. A nil policy (the default) means
// full replication.
func WithPlacement(p *placement.Policy) Option {
	return func(r *Replicator) { r.policy = p }
}

// WithTelemetry attaches the deployment telemetry plane: every sync
// round runs under its own root span whose context rides the digest,
// push and descent rpcs, and each delta that changes local state emits
// a sync.apply span under the originating write's trace (looked up by
// object id in the shared tag table) — the hop that lets one trace run
// from a put at site A to the replica apply at site B.
func WithTelemetry(tel *observe.Telemetry) Option {
	return func(r *Replicator) {
		if tel != nil {
			r.tracer = tel.Tracer
			r.objects = tel.Objects
		}
	}
}

// peer is one sync partner: its address plus (when known) its site name,
// which is what placement filters the push half by.
type peer struct {
	addr netsim.Address
	site string
}

// scopedTree caches a placement-scoped digest tree toward one peer site,
// tagged with the full tree's generation and the policy version it was
// current under. Entries are built by one full-store scan in treeFor and
// then kept current incrementally: every commit fans into them through
// maintainScoped, so the generation stamp advances with the full tree
// and the scan never repeats while the entry lives. A policy change
// (policy version) still discards the entry wholesale — placement rules
// can re-scope arbitrary subsets, which only a rescan can recover.
type scopedTree struct {
	tree      *information.DigestTree
	gen       uint64
	policyVer uint64
	excluded  int64 // rows placement is currently keeping out of this tree
}

// Replicator binds one Space replica to the network: it serves the
// anti-entropy protocol for peers and initiates its own sync rounds
// against the configured peer set.
type Replicator struct {
	ep      *rpc.Endpoint
	clock   vclock.Clock
	space   *information.Space
	site    string
	timeout time.Duration
	policy  *placement.Policy
	tracer  *observe.Tracer
	objects *observe.ObjectTraces

	onRoundFail func() // membership-layer hook: a sync round saw peer failures

	mu             sync.Mutex
	peers          []peer
	scoped         map[string]scopedTree // per-peer-site placement-scoped trees
	commitEvents   uint64                // row-changing space events seen by maintainScoped
	interval       time.Duration
	failureCap     int
	auto           bool
	subscribed     bool
	armed          bool // a round is scheduled
	running        bool // a round is in flight
	wantSync       bool // re-arm requested (write or SyncNow) since round start
	wantNow        bool // the pending request asked for an immediate round
	consecFailures int
	stats          Stats
}

// New binds a replicator to the endpoint, registers the protocol methods,
// and takes the replica's site name from the space.
func New(ep *rpc.Endpoint, clock vclock.Clock, space *information.Space, opts ...Option) *Replicator {
	r := &Replicator{
		ep:         ep,
		clock:      clock,
		space:      space,
		site:       space.Site(),
		timeout:    DefaultSyncTimeout,
		interval:   DefaultInterval,
		failureCap: DefaultFailureCap,
		scoped:     make(map[string]scopedTree),
	}
	for _, opt := range opts {
		opt(r)
	}
	if r.policy != nil {
		// Keep the per-peer scoped trees current from the commit path:
		// space callbacks run synchronously on the mutating goroutine,
		// after the full tree has absorbed the commit.
		r.space.Subscribe("", r.maintainScoped)
	}
	r.register()
	return r
}

// OnRoundFailure installs a callback fired after any sync round that hit
// peer failures. The gossip overlay hooks it to re-probe its views: a
// partition is invisible to a dormant membership layer, but the sync
// layer trips over it immediately.
func (r *Replicator) OnRoundFailure(fn func()) {
	r.mu.Lock()
	r.onRoundFail = fn
	r.mu.Unlock()
}

// Site returns the replica's site name.
func (r *Replicator) Site() string { return r.site }

// Space returns the replica this replicator keeps in sync.
func (r *Replicator) Space() *information.Space { return r.space }

// Addr returns the network address sync traffic originates from.
func (r *Replicator) Addr() netsim.Address { return r.ep.Addr() }

// Stats returns a snapshot of the counters. ScopeFiltered is computed
// here as a gauge over the cached per-peer trees.
func (r *Replicator) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.stats
	out.ScopeFiltered = 0
	for _, c := range r.scoped {
		out.ScopeFiltered += c.excluded
	}
	out.ScopedTrees = len(r.scoped)
	return out
}

// AddPeer adds a peer replicator's address to the sync set with no site
// name: placement cannot scope the push half toward it (everything is
// offered), and its digest requests arrive with its own site name anyway.
// Prefer AddPeerNamed where the site is known.
func (r *Replicator) AddPeer(addr netsim.Address) { r.AddPeerNamed("", addr) }

// AddPeerNamed adds a peer replicator with its site name, enabling
// placement-scoped pushes and targeted migration toward it.
func (r *Replicator) AddPeerNamed(site string, addr netsim.Address) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, p := range r.peers {
		if p.addr == addr {
			if p.site == "" && site != "" {
				r.peers[i].site = site
			}
			return
		}
	}
	r.peers = append(r.peers, peer{addr: addr, site: site})
}

// RemovePeer drops a peer from the sync set — view churn under the
// gossip overlay, or an operator retiring a site. The peer's cached
// placement-scoped digest tree is released with it (unless another peer
// still shares the site), so the per-peer tree cache is bounded by the
// live peer set instead of growing with every site ever seen. Reports
// whether the address was a peer.
func (r *Replicator) RemovePeer(addr netsim.Address) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := -1
	for i, p := range r.peers {
		if p.addr == addr {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	site := r.peers[idx].site
	r.peers = append(r.peers[:idx], r.peers[idx+1:]...)
	if site != "" && !r.peerSiteLocked(site) {
		delete(r.scoped, site)
	}
	return true
}

// tagPeerSite records a site name learned mid-exchange for a peer that
// is still in the sync set. Unlike AddPeerNamed it never inserts: a
// reply that outlives a concurrent RemovePeer must not undo the removal.
func (r *Replicator) tagPeerSite(addr netsim.Address, site string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, p := range r.peers {
		if p.addr == addr {
			if p.site == "" {
				r.peers[i].site = site
			}
			return
		}
	}
}

// peerSiteLocked reports whether any current peer carries the site name.
func (r *Replicator) peerSiteLocked(site string) bool {
	for _, p := range r.peers {
		if p.site == site {
			return true
		}
	}
	return false
}

// Peers returns the peer addresses, sorted.
func (r *Replicator) Peers() []netsim.Address {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]netsim.Address, len(r.peers))
	for i, p := range r.peers {
		out[i] = p.addr
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// placedAt reports whether placement allows the object at the site. A nil
// policy or an unknown site ("" — an untagged peer) admits everything:
// filtering is an optimisation, never a correctness gate for untagged
// peers, while the receiving side still refuses objects it is not placed
// for.
func (r *Replicator) placedAt(site string, o *information.Object) bool {
	if r.policy == nil || site == "" {
		return true
	}
	return r.policy.PlacedAt(site, placement.Describe(o))
}

// maintainScoped fans one committed row into every cached per-peer
// scoped tree, replacing the full-store rescan treeFor used to pay on
// the round after any commit. The callback runs synchronously on the
// mutating goroutine after the full tree absorbed the commit, so
// stamping entries with the full tree's current generation keeps
// treeFor's cache check passing: once writes quiesce, every commit's
// callback has run and the cached trees match a fresh scoped build
// exactly. A row whose new fields move it out of the peer's placement is
// removed from that peer's tree — placement is re-evaluated per commit,
// not only at build time.
func (r *Replicator) maintainScoped(ev information.Event) {
	switch ev.Kind {
	case "put", "update", "apply", "conflict", "evict":
	default:
		return // "share"/"relate" do not change replicated object rows
	}
	full := r.space.Tree()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.commitEvents++ // invalidates any treeFor scan in flight
	if len(r.scoped) == 0 {
		return
	}
	gen, pv := full.Generation(), r.policy.Version()
	for site, c := range r.scoped {
		if c.policyVer != pv {
			delete(r.scoped, site) // policy changed under the entry; rescan
			continue
		}
		if ev.Kind == "evict" || !r.placedAt(site, ev.Object) {
			c.tree.Remove(ev.Object.ID)
		} else {
			c.tree.Update(ev.Object.ID, ev.Object.VV)
		}
		c.gen = gen
		c.excluded = int64(full.Count() - c.tree.Count())
		r.scoped[site] = c
	}
}

// AutoSync arms idle-aware anti-entropy: local writes to the space
// schedule a round interval later, rounds repeat while they move data (or
// keep failing, up to the failure cap), and the replicator goes dormant
// when converged. interval <= 0 keeps the current interval.
func (r *Replicator) AutoSync(interval time.Duration) {
	r.mu.Lock()
	r.auto = true
	if interval > 0 {
		r.interval = interval
	}
	subscribe := !r.subscribed
	r.subscribed = true
	r.mu.Unlock()
	if subscribe {
		r.space.Subscribe("", func(ev information.Event) {
			// Only local writes arm a round: "apply"/"conflict" come from
			// a peer whose own round is already spreading the state, and
			// "share"/"relate" do not change replicated object rows.
			if ev.Kind == "put" || ev.Kind == "update" {
				r.SyncSoon()
			}
		})
	}
}

// SyncSoon requests a round one interval from now (the steady-state write
// coalescing path). Already-scheduled or running rounds absorb the
// request.
func (r *Replicator) SyncSoon() { r.schedule(-1) }

// SyncNow requests a round at the next simulation instant — e.g. right
// after a partition heals.
func (r *Replicator) SyncNow() { r.schedule(0) }

// schedule arms the round timer; d < 0 means one interval. A request
// arriving while a round is armed or in flight is absorbed: roundDone
// re-arms (immediately, if the request was SyncNow).
func (r *Replicator) schedule(d time.Duration) {
	r.mu.Lock()
	r.wantSync = true
	if d == 0 {
		r.wantNow = true
	}
	if r.armed || r.running {
		r.mu.Unlock()
		return
	}
	r.armed = true
	if d < 0 {
		d = r.interval
	}
	r.mu.Unlock()
	r.clock.AfterFunc(d, r.fire)
}

// roundState accumulates one round's outcome across its peer exchanges.
type roundState struct {
	moved         bool // any delta applied or pushed
	failures      int  // peers that could not be exchanged with
	digestEntries int  // digest entries shipped across the round's requests
	digestBytes   int  // digest payload bytes exchanged across the round
	descentDepth  int  // deepest subtree descent any peer exchange needed
	applied       int  // deltas merged in across the round
	pushed        int  // objects pushed across the round

	// Round tracing: span is the round's root span (inactive when the
	// tracer is off) and trace its context, stamped on every rpc the
	// round issues. roundState copies share the same recorded span; only
	// roundDone ends it.
	span  observe.ActiveSpan
	trace wire.TraceContext
}

// fire initiates a round. Runs on the clock's event goroutine.
func (r *Replicator) fire() {
	r.mu.Lock()
	r.armed = false
	if r.running {
		r.mu.Unlock()
		return
	}
	r.running = true
	r.wantSync = false
	r.wantNow = false
	r.stats.Rounds++
	peers := append([]peer(nil), r.peers...)
	r.mu.Unlock()
	sort.Slice(peers, func(i, j int) bool { return peers[i].addr < peers[j].addr })
	var st roundState
	if r.tracer.On() {
		st.span = r.tracer.StartRoot("sync.round", r.site)
		st.trace = st.span.Context()
	}
	r.syncPeer(peers, 0, st)
}

// syncPeer exchanges with peers[i] and chains to the next peer; exchanges
// run sequentially in sorted order so rounds are deterministic.
func (r *Replicator) syncPeer(peers []peer, i int, st roundState) {
	if i >= len(peers) {
		r.roundDone(st)
		return
	}
	next := func(st roundState) { r.syncPeer(peers, i+1, st) }
	(&merkleExchange{r: r, p: peers[i], st: st, next: next}).open()
}

// roundDone closes a round and decides whether to re-arm: an explicit
// request (write or SyncNow) arrived mid-round — honoured even without
// AutoSync — or, under AutoSync, data moved or the round failed with
// failure budget remaining (so partitions are retried, but not forever).
func (r *Replicator) roundDone(st roundState) {
	if st.span.Active() {
		st.span.SetAttr("applied", strconv.Itoa(st.applied))
		st.span.SetAttr("pushed", strconv.Itoa(st.pushed))
		if st.failures > 0 {
			st.span.EndStatus("failures")
		} else {
			st.span.End()
		}
	}
	r.mu.Lock()
	r.running = false
	r.stats.LastRoundDigestEntries = st.digestEntries
	r.stats.LastRoundDigestBytes = st.digestBytes
	r.stats.LastRoundDescentDepth = st.descentDepth
	r.stats.LastRoundDeltas = st.applied
	r.stats.LastRoundPushed = st.pushed
	if st.failures > 0 {
		r.consecFailures++
	} else {
		r.consecFailures = 0
	}
	rearm := r.wantSync || (r.auto && (st.moved ||
		(st.failures > 0 && r.consecFailures < r.failureCap)))
	now := r.wantNow
	onFail := r.onRoundFail
	r.mu.Unlock()
	if st.failures > 0 && onFail != nil {
		onFail()
	}
	if !rearm {
		return
	}
	if now {
		r.SyncNow()
	} else {
		r.SyncSoon()
	}
}

func (r *Replicator) bump(fn func(*Stats)) {
	r.mu.Lock()
	fn(&r.stats)
	r.mu.Unlock()
}

// applyDeltas merges peer-supplied rows into the local replica, refusing
// rows this site is not placed for; returns how many changed local state.
func (r *Replicator) applyDeltas(deltas []wireObject) (applied int) {
	for _, w := range deltas {
		obj := fromWire(w)
		if !r.placedAt(r.site, obj) {
			// The peer offered an object of a space this site is no
			// longer placed in (e.g. de-placed mid-sync).
			r.bump(func(s *Stats) { s.RefusedApplies++ })
			continue
		}
		changed, conflict, err := r.space.ApplyRemote(obj)
		if err != nil {
			continue
		}
		if changed {
			applied++
			// Anti-entropy delivery closes the causal chain: the apply is
			// a span of the trace that wrote the object, not of the sync
			// round that happened to carry it.
			if r.tracer.On() {
				if parent, ok := r.objects.Lookup(obj.ID); ok {
					r.tracer.Event("sync.apply", r.site, parent, "",
						observe.Attr{Key: "object", Value: obj.ID})
				}
			}
		}
		if conflict {
			r.bump(func(s *Stats) { s.Conflicts++ })
		}
	}
	return applied
}

// --- gossip-overlay surface ------------------------------------------------
//
// These three methods plus SyncSoon are what internal/gossip's Replica
// interface needs: rumor staleness checks and the pull half of rumor
// mongering. They keep gossip decoupled from this package — the overlay
// sees an interface, the deployment hands it a *Replicator.

// HasSeen reports whether the local replica already holds id at a
// version dominating vv — a rumor for it carries no news.
func (r *Replicator) HasSeen(id string, vv vclock.Version) bool {
	obj, ok := r.space.Fetch(id)
	return ok && obj.VV.Dominates(vv)
}

// FetchWire returns the named rows in wire form, placement-scoped to the
// requesting site like any other delta.
func (r *Replicator) FetchWire(forSite string, ids []string) []information.WireObject {
	var out []information.WireObject
	for _, id := range ids {
		if obj, ok := r.space.Fetch(id); ok && r.placedAt(forSite, obj) {
			out = append(out, toWire(obj))
		}
	}
	return out
}

// ApplyWire merges rumor-fetched rows through the ordinary delta-apply
// path (placement refusals, conflict resolution, stats), returning how
// many changed local state.
func (r *Replicator) ApplyWire(objs []information.WireObject) int {
	applied := r.applyDeltas(objs)
	r.bump(func(s *Stats) { s.Applied += int64(applied) })
	return applied
}

// treeFor returns the digest tree this replicator compares with the
// named peer site: the space's own incremental tree when placement is
// non-selective (or the peer is untagged), otherwise a cached tree
// scoped to the rows placed at that site — the per-peer view that lets
// partially-replicated pairs compare equal once converged. An entry is
// built by one full-store scan and thereafter maintained incrementally
// from the commit path (maintainScoped), so steady writes cost O(1) per
// peer per commit instead of an O(rows) rescan per changed round. The
// scan itself is guarded by the commit-event counter: if a commit lands
// while the scan runs, the result may miss it, so it is returned for
// this round but not cached — the next call rebuilds from a consistent
// view. A policy change (version bump) always forces a rescan.
func (r *Replicator) treeFor(site string) *information.DigestTree {
	full := r.space.Tree()
	if r.policy == nil || site == "" || !r.policy.Selective() {
		return full
	}
	gen, pv := full.Generation(), r.policy.Version()
	r.mu.Lock()
	if c, ok := r.scoped[site]; ok && c.gen == gen && c.policyVer == pv {
		r.mu.Unlock()
		return c.tree
	}
	ev0 := r.commitEvents
	r.mu.Unlock()
	t := information.NewDigestTree()
	excluded := int64(0)
	r.space.Range(func(o *information.Object) bool {
		if r.policy.PlacedAt(site, placement.Describe(o)) {
			t.Update(o.ID, o.VV)
		} else {
			excluded++
		}
		return true
	})
	r.mu.Lock()
	if r.commitEvents == ev0 && r.mayCacheScopedLocked(site) {
		// No commit raced the scan: the entry is complete, and from here
		// maintainScoped keeps it current — this site never rescans
		// again until the placement policy changes.
		r.scoped[site] = scopedTree{tree: t, gen: gen, policyVer: pv, excluded: excluded}
	}
	r.mu.Unlock()
	return t
}

// scopedSlack is how many scoped trees beyond the peer set the cache
// admits — callers serving digests for sites that are not (yet) peers.
const scopedSlack = 4

// mayCacheScopedLocked bounds the scoped-tree cache: peer sites always
// cache (RemovePeer releases them on churn); non-peer callers — arbitrary
// sites whose digest requests we serve — only while the cache stays
// within the peer count plus a little slack. Past that, a stranger's
// request is served from an uncached scan rather than growing the cache
// (and the per-commit maintainScoped fan-in) without bound.
func (r *Replicator) mayCacheScopedLocked(site string) bool {
	if r.peerSiteLocked(site) {
		return true
	}
	return len(r.scoped) < len(r.peers)+scopedSlack
}

// newerThanHW resolves the tree's past-high-water ids to placement-scoped
// rows — what a replica with those marks has certainly never seen.
func (r *Replicator) newerThanHW(tree *information.DigestTree, hw map[string]uint64, peerSite string) []*information.Object {
	var out []*information.Object
	for _, id := range tree.NewerThanHW(hw) {
		obj, ok := r.space.Fetch(id)
		if !ok || !r.placedAt(peerSite, obj) {
			continue
		}
		out = append(out, obj)
	}
	return out
}

// The digest-byte counters measure the canonical binary size of digest
// payloads (tree frames, high-water maps, id→version-vector entries) —
// a codec-independent yardstick for comparing digest schemes. Data
// deltas and pushes are never digest bytes.

func vvBytes(vv vclock.Version) int {
	n := 8
	for s := range vv {
		n += len(s) + 12
	}
	return n
}

func digestMapBytes(d map[string]vclock.Version) int {
	n := 8
	//lint:allow determinism commutative byte-sum; the total is identical under any iteration order
	for id, vv := range d {
		n += len(id) + 4 + vvBytes(vv)
	}
	return n
}

func hwBytes(hw map[string]uint64) int {
	n := 8
	for s := range hw {
		n += len(s) + 12
	}
	return n
}

// --- Merkle digest negotiation (caller side) -------------------------------

// merkleExchange drives one peer exchange through the digest
// negotiation: root compare (+ high-water fast path) → optional verify →
// subtree descent → scoped digest exchange over the divergent leaves.
type merkleExchange struct {
	r         *Replicator
	p         peer
	st        roundState
	next      func(roundState)
	depth     int      // descent steps taken
	divergent []uint32 // divergent leaf buckets found
}

func (m *merkleExchange) fail() {
	m.r.bump(func(s *Stats) { s.PeerFailures++ })
	m.st.failures++
	m.next(m.st)
}

func (m *merkleExchange) finish(synced bool) {
	if synced {
		m.r.bump(func(s *Stats) { s.PeerSyncs++ })
	}
	m.next(m.st)
}

// count records digest payload bytes for this exchange, both directions.
func (m *merkleExchange) count(n int) {
	m.st.digestBytes += n
	m.r.bump(func(s *Stats) { s.DigestBytes += int64(n) })
}

// open sends the root frame plus high-water marks. A matching root ends
// the exchange at one tiny message pair — the converged steady state.
func (m *merkleExchange) open() {
	r := m.r
	r.bump(func(s *Stats) { s.MerkleExchanges++ })
	tree := r.treeFor(m.p.site)
	frames := wire.AppendTreeFrames(nil, []wire.TreeFrame{{Path: wire.PackTreePath(0, 0), Hash: tree.Root()}})
	hw := tree.HighWater()
	m.count(len(frames) + hwBytes(hw))
	r.ep.GoJSON(m.p.addr, MethodDigest, digestReq{Site: r.site, Frames: frames, HW: hw}, func(res rpc.Result) {
		var resp digestResp
		if err := res.Decode(&resp); err != nil {
			m.fail()
			return
		}
		m.count(len(resp.Frames) + hwBytes(resp.HW))
		if m.p.site == "" && resp.Site != "" {
			// An untagged peer introduced itself: future rounds can scope
			// placement (and trees) by its site. Tag-only — inserting here
			// would resurrect a peer RemovePeer dropped while this reply
			// was in flight.
			r.tagPeerSite(m.p.addr, resp.Site)
			m.p.site = resp.Site
		}
		if resp.Match {
			r.bump(func(s *Stats) { s.ConvergedRoots++ })
			m.finish(true)
			return
		}
		// High-water fast path: merge the rows the peer's marks prove we
		// lack, push the rows our marks prove it lacks.
		applied := r.applyDeltas(resp.Deltas)
		if applied > 0 {
			m.st.moved = true
			m.st.applied += applied
			r.bump(func(s *Stats) { s.HWFastDeltas += int64(applied); s.Applied += int64(applied) })
		}
		peerSite := resp.Site
		if peerSite == "" {
			peerSite = m.p.site
		}
		push := r.newerThanHW(tree, resp.HW, peerSite)
		if len(push) == 0 {
			if applied > 0 {
				// State moved: one cheap root recompare before descending.
				m.verify()
			} else {
				// Nothing the marks explain: descend from the root's
				// children the mismatch response already carried.
				m.descend(resp.Frames)
			}
			return
		}
		wires := make([]wireObject, len(push))
		for i, obj := range push {
			wires[i] = toWire(obj)
		}
		r.ep.GoJSON(m.p.addr, MethodPush, pushReq{Site: r.site, Objects: wires}, func(res rpc.Result) {
			var pr pushResp
			if err := res.Decode(&pr); err != nil {
				m.fail()
				return
			}
			r.bump(func(s *Stats) { s.Pushed += int64(len(wires)) })
			m.st.pushed += len(wires)
			if pr.Applied > 0 {
				m.st.moved = true
			}
			m.verify()
		}, rpc.CallTimeout(r.timeout), rpc.CallTrace(m.st.trace))
	}, rpc.CallTimeout(r.timeout), rpc.CallTrace(m.st.trace))
}

// verify recompares roots after the fast path moved state; a mismatch
// descends from the children the response carries.
func (m *merkleExchange) verify() {
	r := m.r
	tree := r.treeFor(m.p.site)
	frames := wire.AppendTreeFrames(nil, []wire.TreeFrame{{Path: wire.PackTreePath(0, 0), Hash: tree.Root()}})
	m.count(len(frames))
	r.ep.GoJSON(m.p.addr, MethodDigest, digestReq{Site: r.site, Frames: frames}, func(res rpc.Result) {
		var resp digestResp
		if err := res.Decode(&resp); err != nil {
			m.fail()
			return
		}
		m.count(len(resp.Frames))
		if resp.Match {
			m.finish(true)
			return
		}
		m.descend(resp.Frames)
	}, rpc.CallTimeout(r.timeout), rpc.CallTrace(m.st.trace))
}

// descend compares the peer's frames against the local tree: mismatched
// internal nodes form the next negotiation frontier, mismatched leaves
// join the divergent set. An empty frontier ends the descent and moves
// to the scoped digest exchange.
func (m *merkleExchange) descend(framesEnc []byte) {
	r := m.r
	if len(framesEnc) == 0 {
		// The peer reported no mismatched children — it may have
		// converged mid-negotiation (a third replicator pushed it the
		// missing state between steps). Close out over whatever
		// divergent leaves were already found; none means done.
		m.scopedSync(r.treeFor(m.p.site))
		return
	}
	peerFrames, err := wire.DecodeTreeFrames(framesEnc)
	if err != nil {
		m.fail()
		return
	}
	tree := r.treeFor(m.p.site)
	var frontier []wire.TreeFrame
	for _, f := range peerFrames {
		level, index := wire.TreePathParts(f.Path)
		local, ok := tree.NodeHash(level, index)
		if !ok || local == f.Hash {
			continue
		}
		if int(level) >= information.MerkleDepth {
			m.divergent = append(m.divergent, index)
			continue
		}
		frontier = append(frontier, wire.TreeFrame{Path: f.Path, Hash: local})
	}
	if len(frontier) == 0 || m.depth >= information.MerkleDepth {
		m.scopedSync(tree)
		return
	}
	m.depth++
	if m.depth > m.st.descentDepth {
		m.st.descentDepth = m.depth
	}
	enc := wire.AppendTreeFrames(nil, frontier)
	m.count(len(enc))
	r.bump(func(s *Stats) { s.DescentCalls++ })
	r.ep.GoJSON(m.p.addr, MethodDigest, digestReq{Site: r.site, Frames: enc}, func(res rpc.Result) {
		var resp digestResp
		if err := res.Decode(&resp); err != nil {
			m.fail()
			return
		}
		m.count(len(resp.Frames))
		if resp.Match {
			// Every offered frame now agrees: the peer converged while
			// the negotiation was in flight.
			m.scopedSync(r.treeFor(m.p.site))
			return
		}
		m.descend(resp.Frames)
	}, rpc.CallTimeout(r.timeout), rpc.CallTrace(m.st.trace))
}

// scopedSync runs the classic digest exchange narrowed to the divergent
// leaf buckets: digest entries for O(changed) leaves instead of the
// whole id space, then the usual delta apply and push.
func (m *merkleExchange) scopedSync(tree *information.DigestTree) {
	r := m.r
	if len(m.divergent) == 0 {
		// Hash descent found nothing concrete (e.g. the peer converged
		// mid-negotiation): the exchange is over.
		m.finish(true)
		return
	}
	sort.Slice(m.divergent, func(i, j int) bool { return m.divergent[i] < m.divergent[j] })
	digest := make(map[string]vclock.Version)
	for _, b := range m.divergent {
		for id, vv := range tree.LeafDigest(b) {
			digest[id] = vv
		}
	}
	m.st.digestEntries += len(digest)
	m.count(digestMapBytes(digest))
	r.bump(func(s *Stats) { s.DigestEntriesSent += int64(len(digest)) })
	scope := append([]uint32(nil), m.divergent...)
	r.ep.GoJSON(m.p.addr, MethodSync, syncReq{Site: r.site, Digest: digest, Scope: scope}, func(res rpc.Result) {
		var resp syncResp
		if err := res.Decode(&resp); err != nil {
			m.fail()
			return
		}
		m.count(digestMapBytes(resp.Digest))
		applied := r.applyDeltas(resp.Deltas)
		r.bump(func(s *Stats) { s.Applied += int64(applied) })
		m.st.applied += applied
		if applied > 0 {
			m.st.moved = true
		}
		// Push half: our rows in the divergent buckets the peer's scoped
		// digest has not fully seen. The tree is already scoped to the
		// peer's placement interest, so no further filtering is needed.
		var push []*information.Object
		for id, vv := range digest {
			if seen, ok := resp.Digest[id]; ok && seen.Dominates(vv) {
				continue
			}
			if obj, ok := r.space.Fetch(id); ok {
				push = append(push, obj)
			}
		}
		if len(push) == 0 {
			m.finish(true)
			return
		}
		sort.Slice(push, func(i, j int) bool { return push[i].ID < push[j].ID })
		wires := make([]wireObject, len(push))
		for i, obj := range push {
			wires[i] = toWire(obj)
		}
		r.ep.GoJSON(m.p.addr, MethodPush, pushReq{Site: r.site, Objects: wires}, func(res rpc.Result) {
			var pr pushResp
			if err := res.Decode(&pr); err != nil {
				m.fail()
				return
			}
			r.bump(func(s *Stats) { s.Pushed += int64(len(wires)) })
			m.st.pushed += len(wires)
			if pr.Applied > 0 {
				m.st.moved = true
			}
			m.finish(true)
		}, rpc.CallTimeout(r.timeout), rpc.CallTrace(m.st.trace))
	}, rpc.CallTimeout(r.timeout), rpc.CallTrace(m.st.trace))
}

// register installs the protocol handlers. All are pure local compute,
// so the synchronous handler form is safe under the simulated clock.
func (r *Replicator) register() {
	r.ep.MustRegister(MethodSync, rpc.HandleJSON(func(_ netsim.Address, req syncReq) (syncResp, error) {
		if len(req.Scope) == 0 {
			return syncResp{}, ErrUnscopedSync
		}
		r.bump(func(s *Stats) { s.ServedDigests++ })
		return r.serveScopedSync(req), nil
	}))
	r.ep.MustRegister(MethodDigest, rpc.HandleJSON(func(_ netsim.Address, req digestReq) (digestResp, error) {
		return r.serveDigest(req)
	}))
	r.ep.MustRegister(MethodPush, rpc.HandleJSON(func(_ netsim.Address, req pushReq) (pushResp, error) {
		var resp pushResp
		notPlaced := 0
		for _, w := range req.Objects {
			obj := fromWire(w)
			if !r.placedAt(r.site, obj) {
				notPlaced++
				resp.Refused = append(resp.Refused, obj.ID)
				continue
			}
			changed, conflict, err := r.space.ApplyRemote(obj)
			if err != nil {
				resp.Refused = append(resp.Refused, obj.ID)
				continue
			}
			if changed {
				resp.Applied++
			}
			if conflict {
				resp.Conflicts++
			}
		}
		// Migrated edges: recorded best-effort AFTER the rows, so edges
		// between rows of the same batch land. An edge whose other
		// endpoint is not held here cannot be recorded (cross-site edges
		// are the relationship-graph-replication open item) and is
		// skipped.
		for _, rel := range req.Relations {
			_ = r.space.Relate(rel.From, information.RelKind(rel.Kind), rel.To)
		}
		r.bump(func(s *Stats) {
			s.ServedApplied += int64(resp.Applied)
			s.Conflicts += int64(resp.Conflicts)
			s.RefusedApplies += int64(notPlaced)
		})
		if resp.Applied > 0 {
			// Infected becomes infectious: on a sparse peering graph the
			// rows just applied must keep flooding, and only this replica's
			// own round reaches ITS peers. On a full mesh this costs at most
			// one no-op round — the re-armed round moves nothing and the
			// replicator goes dormant again.
			r.SyncSoon()
		}
		return resp, nil
	}))
}

// serveScopedSync answers a digest exchange narrowed to the caller's
// divergent Merkle leaf buckets: the responder's scoped digest for those
// buckets plus the rows the caller's scoped digest has not fully seen.
// The per-caller tree is already placement-scoped, so the partial-
// replication cut is built in.
func (r *Replicator) serveScopedSync(req syncReq) syncResp {
	tree := r.treeFor(req.Site)
	scopedDigest := make(map[string]vclock.Version)
	var deltas []*information.Object
	for _, b := range req.Scope {
		for id, vv := range tree.LeafDigest(b) {
			scopedDigest[id] = vv
			if seen, ok := req.Digest[id]; ok && seen.Dominates(vv) {
				continue
			}
			if obj, ok := r.space.Fetch(id); ok {
				deltas = append(deltas, obj)
			}
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].ID < deltas[j].ID })
	resp := syncResp{Site: r.site, Digest: scopedDigest}
	if len(deltas) > 0 {
		r.bump(func(s *Stats) { s.DeltasServed += int64(len(deltas)) })
		resp.Deltas = make([]wireObject, len(deltas))
		for i, obj := range deltas {
			resp.Deltas[i] = toWire(obj)
		}
	}
	return resp
}

// serveDigest answers one Merkle negotiation step: for every offered
// frame that mismatches the responder's tree, the node's children; on
// the opening call (HW present) also the responder's high-water marks
// and the fast-path rows the caller's marks prove it lacks.
func (r *Replicator) serveDigest(req digestReq) (digestResp, error) {
	r.bump(func(s *Stats) { s.ServedDigests++ })
	tree := r.treeFor(req.Site)
	frames, err := wire.DecodeTreeFrames(req.Frames)
	if err != nil {
		return digestResp{}, err
	}
	resp := digestResp{Site: r.site, Match: true}
	var children []wire.TreeFrame
	for _, f := range frames {
		level, index := wire.TreePathParts(f.Path)
		local, ok := tree.NodeHash(level, index)
		if !ok || local == f.Hash {
			continue
		}
		resp.Match = false
		base := index * information.MerkleFanout
		for j, h := range tree.Children(level, index) {
			children = append(children, wire.TreeFrame{
				Path: wire.PackTreePath(level+1, base+uint32(j)),
				Hash: h,
			})
		}
	}
	if len(children) > 0 {
		resp.Frames = wire.AppendTreeFrames(nil, children)
	}
	if req.HW != nil {
		resp.HW = tree.HighWater()
		if !resp.Match {
			deltas := r.newerThanHW(tree, req.HW, req.Site)
			if len(deltas) > 0 {
				r.bump(func(s *Stats) { s.DeltasServed += int64(len(deltas)) })
				resp.Deltas = make([]wireObject, len(deltas))
				for i, obj := range deltas {
					resp.Deltas[i] = toWire(obj)
				}
			}
		}
	}
	return resp, nil
}

// --- placement migration ---------------------------------------------------

// MigrationReport summarises one MigrateForeign run.
type MigrationReport struct {
	Foreign  int // rows found that this site is not placed for
	Moved    int // rows pushed to a placed peer
	Dropped  int // rows evicted locally after a successful push
	Kept     int // rows retained (no reachable placed peer — never drop data)
	Failures int // push exchanges that failed
}

// MigrateForeign moves rows of spaces this site is no longer placed in
// off this replica: each foreign row is pushed (MethodPush) to the first
// placed site among the named peers together with the relationship edges
// touching it, and only rows the target ACCEPTED (absent from the
// response's Refused list) are dropped locally. Rows whose placement
// names no reachable peer, whose push fails, that the target refuses
// (e.g. the policy moved again mid-flight), or that a local write
// touched after the migration snapshot (the push did not cover the new
// state) are kept — migration never destroys the only copy. Edges whose other endpoint the target does not
// hold cannot be recorded there (cross-site edges are an open item) and
// are lost with the local drop. done (optional) receives the report when
// every push has completed; under a simulated clock, drain the clock to
// let the pushes run.
func (r *Replicator) MigrateForeign(done func(MigrationReport)) {
	if done == nil {
		done = func(MigrationReport) {}
	}
	policy := r.policy
	if policy == nil {
		done(MigrationReport{})
		return
	}
	r.mu.Lock()
	siteAddr := make(map[string]netsim.Address, len(r.peers))
	for _, p := range r.peers {
		if p.site != "" {
			siteAddr[p.site] = p.addr
		}
	}
	r.mu.Unlock()

	var rep MigrationReport
	groups := make(map[netsim.Address][]*information.Object)
	for _, obj := range r.space.Snapshot() {
		pl := policy.SitesFor(placement.Describe(obj))
		if pl.At(r.site) {
			continue
		}
		rep.Foreign++
		var target netsim.Address
		found := false
		for _, site := range pl.Sites { // sorted: deterministic target
			if addr, ok := siteAddr[site]; ok {
				target, found = addr, true
				break
			}
		}
		if !found {
			rep.Kept++
			continue
		}
		groups[target] = append(groups[target], obj)
	}
	targets := make([]netsim.Address, 0, len(groups))
	for addr := range groups {
		targets = append(targets, addr)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })

	var step func(int)
	step = func(i int) {
		if i >= len(targets) {
			r.bump(func(s *Stats) {
				s.Migrated += int64(rep.Moved)
				s.Evicted += int64(rep.Dropped)
			})
			done(rep)
			return
		}
		batch := groups[targets[i]]
		wires := make([]wireObject, len(batch))
		ids := make([]string, len(batch))
		for j, obj := range batch {
			wires[j] = toWire(obj)
			ids[j] = obj.ID
		}
		req := pushReq{Site: r.site, Objects: wires, Relations: r.edgesTouching(ids)}
		r.ep.GoJSON(targets[i], MethodPush, req, func(res rpc.Result) {
			var pr pushResp
			if err := res.Decode(&pr); err != nil {
				// Unreachable target: the rows stay here until the next
				// migration attempt.
				rep.Failures++
				rep.Kept += len(batch)
			} else {
				refused := make(map[string]bool, len(pr.Refused))
				for _, id := range pr.Refused {
					refused[id] = true
				}
				for _, obj := range batch {
					if refused[obj.ID] {
						// The target would not take it (the policy may have
						// moved again mid-flight): this copy stays.
						rep.Kept++
						continue
					}
					rep.Moved++
					// Evict only what the push covered: a local write that
					// landed after the migration snapshot keeps the row for
					// the next pass instead of being destroyed.
					removed, derr := r.space.DropCovered(obj.ID, obj.VV)
					if derr == nil && removed != nil {
						rep.Dropped++
					} else if derr == nil {
						rep.Kept++
					}
				}
			}
			step(i + 1)
		}, rpc.CallTimeout(r.timeout))
	}
	step(0)
}

// edgesTouching collects every relationship edge with an endpoint among
// ids, deduplicated — the graph share that must travel with migrating
// rows.
func (r *Replicator) edgesTouching(ids []string) []wireRelation {
	kinds := []information.RelKind{
		information.RelComposedOf, information.RelDependsOn, information.RelDerivedFrom,
	}
	seen := make(map[wireRelation]bool)
	var out []wireRelation
	for _, id := range ids {
		for _, k := range kinds {
			for _, to := range r.space.Related(id, k) {
				e := wireRelation{From: id, Kind: string(k), To: to}
				if !seen[e] {
					seen[e] = true
					out = append(out, e)
				}
			}
			for _, from := range r.space.Dependents(id, k) {
				e := wireRelation{From: from, Kind: string(k), To: id}
				if !seen[e] {
					seen[e] = true
					out = append(out, e)
				}
			}
		}
	}
	return out
}

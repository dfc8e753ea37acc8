package farm

import (
	"math"
	"math/bits"

	"sleepscale/internal/queue"
)

// This file is the fleet-scale routing index: O(log k) per-job decisions for
// the state-dependent dispatchers, proven bit-identical to their O(k) linear
// scans. The sliced parallel driver builds one index per farm and routes every
// job through it; DispatchOptions.LinearRouting opts back into the scans.
//
// The structures answer exactly the queries the linear comparators compute:
//
//   - JSQ picks the least-backlogged server, ties toward the lowest index.
//     Backlog at arrival t is max(0, freeAt−t), so every idle server
//     (freeAt ≤ t) ties at zero and the lowest-index idle server wins; with
//     no idle server the winner is the minimum (freeAt, index) pair. A
//     tournament tree over freeAt serves both: a leftmost-descent for the
//     lowest-index leaf with key ≤ t, the root winner for the busy minimum.
//     No configuration enters the decision, so a farm whose servers run
//     different configurations needs them only for the shadow commit.
//
//   - Least-work-left picks the earliest completion of the arriving job.
//     Busy servers (freeAt ≥ t) complete at freeAt + svc — the same
//     tournament-tree minimum, with idle keys lifted to +Inf and extracted
//     lazily as t advances. Idle servers complete at (t + wake) + svc, where
//     wake depends only on the sleep phase occupied at t: all idle servers in
//     one phase bucket tie, so the lowest index per bucket is the only
//     candidate, held in a two-level bitset per bucket. Servers migrate
//     between buckets at anchor + EnterAfter boundaries, tracked by a lazy
//     min-heap of crossings invalidated by per-server generations. Service
//     and wake pricing depend on the configuration, so servers are split into
//     configuration classes, each indexed on its own, and the class winners
//     are compared by (done, index).
//
// Every floating-point expression below mirrors the corresponding linear-scan
// expression operation for operation (the equivalence suite in index_test.go
// pins this across seeds, dispatchers, fleet sizes and configuration mixes).

// routeIndex is the O(log k) routing core the sliced driver consults. route
// both decides the server for j and commits the shadow advance — it writes
// the new freeAt/anchor through the driver's shadow slices, so the
// post-barrier engine resync still compares clean. reset rebuilds from the
// shadow (after Farm.Reset, a new stream, or a resync mismatch); jobs within
// one run must arrive in non-decreasing order and be finite, as everywhere
// else.
type routeIndex interface {
	// reset rebuilds the index from the shadow, pricing server s from
	// cfgs[s] — the driver's per-call snapshot of the engines' live
	// configurations, aliased until the next reset. It reports false when
	// the configurations fall into more classes than the index takes on
	// (see maxClasses); the driver then routes linearly.
	reset(cfgs []queue.Config) bool
	route(j queue.Job) int
	// rebind re-aliases the index to new shadow slices after the driver
	// resized them (a Select view's server count changed); the caller must
	// reset before routing again.
	rebind(freeAt, anchor []float64)
}

// newRouteIndexFor returns the O(log k) index for dispatchers that have one,
// nil otherwise. The gate is deliberately exact-type, not an interface: a
// wrapper embedding JSQ or LeastWorkLeft would inherit a promoted index
// constructor while overriding RouteVirtual, and the index would silently
// route by the embedded semantics instead of the override. The returned index
// routes against — and writes through — the driver's freeAt/anchor shadow
// slices, which must stay aliased for the index's lifetime.
func newRouteIndexFor(disp Dispatcher, freeAt, anchor []float64) routeIndex {
	switch disp.(type) {
	case JSQ:
		return &jsqIndex{freeAt: freeAt, anchor: anchor}
	case *JSQ:
		return &jsqIndex{freeAt: freeAt, anchor: anchor}
	case *LeastWorkLeft:
		return &lwlClasses{freeAt: freeAt, anchor: anchor}
	}
	return nil
}

// minTree is a tournament tree over per-server float64 keys: a complete
// binary tree with base = 2^⌈log₂ k⌉ leaves (server i at node base+i, padding
// keyed +Inf), whose internal node n stores the leaf index winning the
// subtree — the minimum key, ties toward the lower index. Point updates and
// both queries are O(log k).
type minTree struct {
	k    int
	base int
	key  []float64 // len base: key[i] for server i, +Inf padding beyond k
	win  []int32   // len base: win[n] for internal nodes 1..base-1
}

func (t *minTree) init(k int) {
	base := 1
	for base < k {
		base <<= 1
	}
	t.k, t.base = k, base
	if cap(t.key) < base {
		t.key = make([]float64, base)
		t.win = make([]int32, base)
	}
	t.key = t.key[:base]
	t.win = t.win[:base]
	for i := k; i < base; i++ {
		t.key[i] = math.Inf(1)
	}
}

// build recomputes every internal node; keys must already be set.
func (t *minTree) build() {
	for n := t.base - 1; n >= 1; n-- {
		t.win[n] = t.better(t.winner(2*n), t.winner(2*n+1))
	}
}

// winner resolves node n to the leaf index winning its subtree.
func (t *minTree) winner(n int) int32 {
	if n >= t.base {
		return int32(n - t.base)
	}
	return t.win[n]
}

// better returns the lower-key leaf; on equal keys the left argument — always
// the lower index — wins, matching the linear scans' strict-less updates.
func (t *minTree) better(l, r int32) int32 {
	if t.key[l] <= t.key[r] {
		return l
	}
	return r
}

// update replays server s's leaf up to the root after key[s] changed.
func (t *minTree) update(s int) {
	for n := (t.base + s) / 2; n >= 1; n /= 2 {
		t.win[n] = t.better(t.winner(2*n), t.winner(2*n+1))
	}
}

// min returns the leaf with the minimum (key, index) pair.
func (t *minTree) min() int {
	if t.base == 1 {
		return 0
	}
	return int(t.win[1])
}

// minKey returns the tree's minimum key.
func (t *minTree) minKey() float64 { return t.key[t.min()] }

// leftmostLE returns the lowest leaf index with key ≤ bound, or -1 if none.
// The descent prefers the left child whenever its subtree minimum qualifies,
// which is exactly the lowest-index qualifying leaf.
func (t *minTree) leftmostLE(bound float64) int {
	if t.minKey() > bound {
		return -1
	}
	n := 1
	for n < t.base {
		if t.key[t.winner(2*n)] <= bound {
			n = 2 * n
		} else {
			n = 2*n + 1
		}
	}
	return n - t.base
}

// jsqIndex indexes JSQ routing: leftmostLE(t) when any server is idle (all
// idle servers tie at backlog zero, linear scan keeps the first), the tree
// minimum otherwise (backlog freeAt−t orders as freeAt). The decision reads
// no configuration; the picked server's shadow advances under its own
// snapshot entry, so one index serves homogeneous and per-server farms alike.
type jsqIndex struct {
	freeAt []float64 // the driver's shadow, written through
	anchor []float64
	cfgs   []queue.Config // per-server pricing of the shadow commit
	tree   minTree
}

func (x *jsqIndex) rebind(freeAt, anchor []float64) {
	x.freeAt, x.anchor = freeAt, anchor
}

func (x *jsqIndex) reset(cfgs []queue.Config) bool {
	x.cfgs = cfgs
	x.tree.init(len(x.freeAt))
	copy(x.tree.key, x.freeAt)
	x.tree.build()
	return true
}

func (x *jsqIndex) route(j queue.Job) int {
	s := x.tree.leftmostLE(j.Arrival)
	if s < 0 {
		s = x.tree.min()
	}
	nf := x.cfgs[s].NextFreeAtAnchored(x.freeAt[s], x.anchor[s], j)
	x.freeAt[s], x.anchor[s] = nf, nf
	x.tree.key[s] = nf
	x.tree.update(s)
	return s
}

// bucketBits is a two-level bitset over server indices: one word of summary
// bits per 64 index words. lowestSet scans the summary first, so finding the
// lowest-index member costs O(k/4096 + 1) word operations.
type bucketBits struct {
	bits []uint64
	sum  []uint64
}

func (b *bucketBits) init(words, sumWords int) {
	b.bits = resizeUint64(b.bits, words)
	b.sum = resizeUint64(b.sum, sumWords)
}

func resizeUint64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func (b *bucketBits) set(s int) {
	w := s >> 6
	b.bits[w] |= 1 << (s & 63)
	b.sum[w>>6] |= 1 << (w & 63)
}

func (b *bucketBits) clear(s int) {
	w := s >> 6
	b.bits[w] &^= 1 << (s & 63)
	if b.bits[w] == 0 {
		b.sum[w>>6] &^= 1 << (w & 63)
	}
}

func (b *bucketBits) lowestSet() int {
	for sw, v := range b.sum {
		if v != 0 {
			w := sw<<6 + bits.TrailingZeros64(v)
			return w<<6 + bits.TrailingZeros64(b.bits[w])
		}
	}
	return -1
}

// crossing schedules the idle server at a class's leaf to migrate into phase
// bucket b at time t. Entries are invalidated lazily: gen must still match the
// leaf's when the crossing fires, otherwise the server went busy in the
// meantime.
type crossing struct {
	t    float64
	leaf int32
	b    int32
	gen  uint32
}

// maxClasses is the most configuration classes the least-work-left index
// takes on for a k-server farm: ⌊k/4⌋, at least 1. Each decision visits
// every class, so C classes cost O(C·phases + log k) per job against the
// linear scan's Θ(k), plus an O(k·C) partition per serve call. Measured on a
// 2-vCPU x86-64 host (40,000 jobs at ρ = 0.3 per server, single-state
// classes), the index costs 23–33 ns per class and job against the scan's
// 10–12 ns per server and job: it breaks even near C = 0.4k, is 1.9× faster
// at C = k/4 (k = 1,000 and 10,000) and 1.4× slower at C = k/2
// (k = 1,000). The partition at the cap takes 0.36 ms at k = 1,000 and
// 40 ms at k = 10,000, the linear cost of routing about 36 and 320 jobs.
// Per-server SleepScale decisions do produce many classes: an analytic
// SleepScale fleet of 1,000 servers (email-store trace, quorum 250, no
// parking) served 60 calls with a median of 150 classes and a maximum of
// 601; under this cap 45 calls, 70% of the jobs, took the index and routing
// time fell from 1.4 s to 0.65 s. Past the cap — fewer than four servers per
// class on average — the driver routes by the linear scan. A uniform farm
// is one class for every k.
func maxClasses(k int) int { return max(1, k/4) }

// lwlClasses indexes least-work-left routing over a farm whose servers may
// run different configurations. reset partitions the servers into classes of
// equal configuration (configsEqual against one representative per class,
// in order of each class's lowest member) — one class for a homogeneous
// farm, two for a static policy under a sleep quorum, a third once servers
// park, many under per-server policies — and builds one lwlIndex per class
// over its ascending member list. route takes each class's winner and keeps
// the minimum (done, server index) pair: the linear scan visits servers in
// index order with a strict-less update, so that pair is exactly its tie
// rule.
type lwlClasses struct {
	freeAt []float64 // the driver's shadow, written through
	anchor []float64

	classes []lwlIndex // classes[:nc] are live; the rest keep their buffers
	nc      int
}

func (x *lwlClasses) rebind(freeAt, anchor []float64) {
	x.freeAt, x.anchor = freeAt, anchor
}

func (x *lwlClasses) reset(cfgs []queue.Config) bool {
	limit := maxClasses(len(x.freeAt))
	x.nc = 0
	// Servers are visited in index order, so each member list is ascending
	// and its first entry is the class representative.
	for s := range cfgs {
		c := 0
		for c < x.nc && !configsEqual(&cfgs[x.classes[c].members[0]], &cfgs[s]) {
			c++
		}
		if c == x.nc {
			if c == limit {
				return false
			}
			if c == len(x.classes) {
				x.classes = append(x.classes, lwlIndex{})
			}
			x.classes[c].members = x.classes[c].members[:0]
			x.nc++
		}
		x.classes[c].members = append(x.classes[c].members, int32(s))
	}
	for c := range x.classes[:x.nc] {
		cl := &x.classes[c]
		cl.reset(&cfgs[cl.members[0]], x.freeAt, x.anchor)
	}
	return true
}

func (x *lwlClasses) route(j queue.Job) int {
	bestClass, bestLeaf, best, bestDone := 0, 0, -1, 0.0
	for c := range x.classes[:x.nc] {
		leaf, done := x.classes[c].candidate(j)
		s := int(x.classes[c].members[leaf])
		if best < 0 || done < bestDone || (done == bestDone && s < best) {
			bestClass, bestLeaf, best, bestDone = c, leaf, s, done
		}
	}
	x.classes[bestClass].commit(bestLeaf, j)
	return best
}

// lwlIndex indexes least-work-left routing over one configuration class: the
// servers members[0] < members[1] < …, leaf i standing for server members[i].
// Busy servers live in a minTree keyed by freeAt (idle keys +Inf, extracted
// lazily as t passes freeAt); idle servers live in one bitset per
// wake-pricing bucket — bucket 0 is the pre-sleep window (wake 0), bucket
// p+1 is cfg.Phases[p] — migrating at anchor+EnterAfter boundaries via the
// crossing heap. The candidates at arrival t are the busy minimum
// (done = freeAt + svc) and each non-empty bucket's lowest leaf
// (done = (t + wake) + svc), compared by (done, leaf) exactly as the linear
// scan's strict-less loop resolves them; ascending members make the leaf
// order the server order.
//
// Pricing uses the class configuration passed to reset — a snapshot of the
// engines' live configurations — exactly as Pick prices from live engines,
// so indexed routing stays bit-identical to the sequential dispatch even when
// operating points switch between calls (the fleet coordinator's
// epoch-boundary policy changes). The dispatcher's static Cfg field is never
// consulted.
type lwlIndex struct {
	freeAt  []float64 // the driver's shadow, indexed by server
	anchor  []float64
	members []int32      // leaf → server, ascending
	cfg     queue.Config // the class configuration: live pricing, like Pick

	tree     minTree
	buckets  []bucketBits // len(cfg.Phases) + 1
	wakes    []float64    // wake latency per bucket
	enters   []float64    // EnterAfter per phase (crossing boundaries)
	bucketOf []int32      // current bucket per leaf, -1 = busy
	gen      []uint32
	heap     []crossing
}

// reset rebuilds the class index over its member list, which the caller
// has already filled, pricing from cfg.
func (x *lwlIndex) reset(cfg *queue.Config, freeAt, anchor []float64) {
	x.cfg, x.freeAt, x.anchor = *cfg, freeAt, anchor
	n := len(x.members)
	x.tree.init(n)
	// Every server starts in the busy tree regardless of its freeAt; route's
	// lazy extraction moves the idle ones out with the correct bucket for the
	// first arrival's instant (which reset cannot know yet).
	for i, s := range x.members {
		x.tree.key[i] = freeAt[s]
	}
	x.tree.build()

	nb := len(x.cfg.Phases) + 1
	if cap(x.buckets) < nb {
		x.buckets = make([]bucketBits, nb)
	}
	x.buckets = x.buckets[:nb]
	words := (n + 63) / 64
	sumWords := (words + 63) / 64
	x.wakes = resizeFloats(x.wakes, nb)
	x.enters = resizeFloats(x.enters, nb-1)
	for b := range x.buckets {
		x.buckets[b].init(words, sumWords)
		if b > 0 {
			x.wakes[b] = x.cfg.Phases[b-1].WakeLatency
			x.enters[b-1] = x.cfg.Phases[b-1].EnterAfter
		}
	}
	x.bucketOf = resizeInt32(x.bucketOf, n)
	x.gen = resizeUint32(x.gen, n)
	for i := range x.bucketOf {
		x.bucketOf[i] = -1
	}
	x.heap = x.heap[:0]
}

func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func resizeUint32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		s = make([]uint32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// candidate returns the class's earliest completion of j as a (leaf, done)
// pair, after bringing the idle structures up to j's arrival.
func (x *lwlIndex) candidate(j queue.Job) (int, float64) {
	t := j.Arrival
	x.advance(t)

	svc := x.cfg.ServiceTime(j.Size)
	best, bestDone := -1, 0.0
	for b := range x.buckets {
		i := x.buckets[b].lowestSet()
		if i < 0 {
			continue
		}
		// Same float expression as the linear scan's idle branch:
		// start = arrival + wake, done = start + svc.
		done := (t + x.wakes[b]) + svc
		if best < 0 || done < bestDone || (done == bestDone && i < best) {
			best, bestDone = i, done
		}
	}
	if i := x.tree.min(); !math.IsInf(x.tree.key[i], 1) {
		done := x.tree.key[i] + svc
		if best < 0 || done < bestDone || (done == bestDone && i < best) {
			best, bestDone = i, done
		}
	}
	return best, bestDone
}

// commit routes j to leaf i: the server goes (or stays) busy; the shadow
// advances by the class configuration and the idle schedule re-anchors at
// the new freeAt, exactly as Engine.Process will when the job reaches it.
func (x *lwlIndex) commit(i int, j queue.Job) {
	if b := x.bucketOf[i]; b >= 0 {
		x.buckets[b].clear(i)
		x.bucketOf[i] = -1
		x.gen[i]++ // orphan any scheduled crossing
	}
	s := x.members[i]
	nf := x.cfg.NextFreeAtAnchored(x.freeAt[s], x.anchor[s], j)
	x.freeAt[s], x.anchor[s] = nf, nf
	x.tree.key[i] = nf
	x.tree.update(i)
}

// advance brings the idle structures up to arrival time t: servers whose
// freeAt passed strictly below t leave the busy tree (arrival == freeAt is
// still the busy branch), and scheduled bucket crossings at or before t fire
// (occupiedPhase uses EnterAfter ≤ offset, so a boundary hit exactly at t
// counts).
func (x *lwlIndex) advance(t float64) {
	for x.tree.minKey() < t {
		x.goIdle(x.tree.min(), t)
	}
	for len(x.heap) > 0 && x.heap[0].t <= t {
		c := x.heapPop()
		i := int(c.leaf)
		if c.gen != x.gen[i] || x.bucketOf[i] != c.b-1 {
			continue // server went busy (or already migrated) since scheduling
		}
		x.buckets[c.b-1].clear(i)
		x.buckets[c.b].set(i)
		x.bucketOf[i] = c.b
		x.schedule(i, int(c.b))
	}
}

// goIdle moves leaf i from the busy tree into the bucket occupied at time t,
// and schedules its next crossing.
func (x *lwlIndex) goIdle(i int, t float64) {
	x.tree.key[i] = math.Inf(1)
	x.tree.update(i)
	// occupiedPhase(t - anchor) + 1, inlined over the cached boundaries.
	off := t - x.anchor[x.members[i]]
	b := 0
	for b < len(x.enters) && x.enters[b] <= off {
		b++
	}
	x.buckets[b].set(i)
	x.bucketOf[i] = int32(b)
	x.schedule(i, b)
}

// schedule pushes leaf i's crossing out of bucket b, if a deeper phase
// exists. The boundary is anchor + EnterAfter of the next phase, necessarily
// in the future of the scheduling instant.
func (x *lwlIndex) schedule(i, b int) {
	if b >= len(x.enters) {
		return // deepest phase: no further crossing
	}
	t := x.anchor[x.members[i]] + x.enters[b]
	x.heapPush(crossing{t: t, leaf: int32(i), b: int32(b + 1), gen: x.gen[i]})
	// Orphaned entries (server went busy before its crossing fired) are only
	// reclaimed when popped; compact if they pile up far beyond the
	// members·phases live bound.
	if len(x.heap) > 4*(len(x.members)+16)*(len(x.enters)+1) {
		x.compact()
	}
}

// compact drops orphaned heap entries in place and restores the heap order.
func (x *lwlIndex) compact() {
	live := x.heap[:0]
	for _, c := range x.heap {
		i := int(c.leaf)
		if c.gen == x.gen[i] && x.bucketOf[i] == c.b-1 {
			live = append(live, c)
		}
	}
	x.heap = live
	for i := len(x.heap)/2 - 1; i >= 0; i-- {
		x.siftDown(i)
	}
}

func (x *lwlIndex) heapPush(c crossing) {
	x.heap = append(x.heap, c)
	i := len(x.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if x.heap[p].t <= x.heap[i].t {
			break
		}
		x.heap[p], x.heap[i] = x.heap[i], x.heap[p]
		i = p
	}
}

func (x *lwlIndex) heapPop() crossing {
	top := x.heap[0]
	last := len(x.heap) - 1
	x.heap[0] = x.heap[last]
	x.heap = x.heap[:last]
	if last > 0 {
		x.siftDown(0)
	}
	return top
}

func (x *lwlIndex) siftDown(i int) {
	n := len(x.heap)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && x.heap[c+1].t < x.heap[c].t {
			c++
		}
		if x.heap[i].t <= x.heap[c].t {
			return
		}
		x.heap[i], x.heap[c] = x.heap[c], x.heap[i]
		i = c
	}
}

// Package farm extends SleepScale to the multi-server setting the paper
// lists as future work (§7): a cluster of servers, each running its own
// power policy, with jobs spread across them by a dispatcher. It also
// enables the scale-out study of Gandhi & Harchol-Balter [6] — how the
// number of servers sharing a fixed aggregate load changes the value of
// dynamic power management — which the related-work section builds on.
//
// # Dispatchers
//
// A Dispatcher routes each arriving job to one of k servers; RoundRobin,
// Random, JSQ (join the shortest queue, by outstanding work), PowerOfD
// (d random choices, join the least backlogged of the sample) and
// LeastWorkLeft (earliest completion, wake-up latency included) are
// provided. Pick, against the live engines, is the sequential reference.
// Dispatchers may additionally implement one of two capability interfaces
// that unlock parallel simulation:
//
//   - Preassigner (round-robin, random): routing is independent of server
//     state, so the whole assignment can be computed up front and the
//     per-server substreams simulated concurrently.
//   - Router (JSQ, PowerOfD, LeastWorkLeft): routing depends only on each
//     server's configuration, work-completion time (freeAt) and idle
//     anchor, so Route decides against a lightweight shadow of those three
//     advanced by queue.Config.NextFreeAtAnchored — no live engines needed
//     at routing time. The anchor keeps wake-up pricing exact even after a
//     mid-run SetConfigAt taken during an idle period; JSQ and PowerOfD
//     read freeAt alone.
//
// # Drivers
//
// Two drivers cover the materialized and the streamed job stream:
//
//   - Run dispatches a fully materialized, sorted job stream (parallel when
//     the dispatcher is a Preassigner, sequential otherwise).
//   - DispatchSource is the streaming k-way dispatch loop: jobs are pulled
//     from any queue.JobSource in bounded chunks and routed through the
//     dispatcher at their arrival instants, advancing the k engines in
//     virtual-time order so JSQ sees accurate queue depths without the
//     stream ever being materialized.
//
// Both check the farm-wide stream, which no engine can: each sees only the
// jobs routed to it, so a late arrival sent to an idle server would pass
// every engine's own order check. Every job must pass queue.ValidateJob
// against the previous job of the call (in ServeSource, ServeSourceSliced
// and Run alike), and the first that fails ends the call with its queue
// sentinel.
//
// # Time-sliced parallel dispatch and its determinism contract
//
// DispatchSource's parallel mode (DispatchOptions.Parallel) removes the
// serial bottleneck of state-dependent dispatch: the stream is cut into
// slices at dispatch-forced synchronization points; each slice is routed
// serially — Preassign for state-independent dispatchers, Route and the
// shadow recursion for Routers — and the per-server substreams then advance
// concurrently, with a barrier resynchronizing the shadow from the engines
// before the next slice. The contract is bit-identical determinism: because
// queue.Config.NextFreeAtAnchored mirrors Engine.Process's availability
// arithmetic operation for operation, every routing decision equals the one
// the sequential dispatch would make, each engine serves the same jobs in
// the same order, and the merge (server-ordered, through the same
// Farm.Finish) reproduces the sequential Result exactly — equivalence tests
// and a golden snapshot pin this across dispatchers, seeds and pool sizes.
// The slice size tunes only barrier frequency, never results.
//
// # Fleet-scale routing index
//
// At fleet scale the routing half of the sliced loop dominates: a linear
// shadow scan is Θ(k) per job, ~10^8 float compares per re-served stream at
// k = 10,000. The sliced driver therefore routes JSQ and LeastWorkLeft
// through an O(log k) index over the shadow (index.go): JSQ uses a
// tournament tree over (freeAt, index) with a leftmost-at-most descent for
// the all-idle case; LeastWorkLeft adds per-phase idle bitsets and a
// crossing heap so sleep-state wake pricing stays exact while only O(log k)
// state updates per decision are paid. The index serves heterogeneous farms
// too (see below). It is an implementation detail with a hard bit-identity
// contract — every decision equals Route's linear scan, tie-breaks
// included — pinned by an equivalence suite up to k = 10,000 and
// benchmarked (indexed vs linear) in BenchmarkFarmRoute10k and
// BenchmarkFarmRouteClasses; DispatchOptions.LinearRouting disables it for
// A/B comparison. PowerOfD inspects only its d sampled servers and always
// routes through Route.
//
// # Persistent worker pool and steady-state reuse
//
// Every parallel path in the package — Run's preassigned fan-out and each
// slice of the parallel dispatch — executes on the process-wide persistent pool of internal/par: workers are
// started once and parked between submissions, and the pool's reusable
// barrier replaces the per-call (previously per-slice) sync.WaitGroup
// churn. The sliced driver uses par.Pool.RunSharded, giving each executor a
// fixed contiguous server shard: the same worker touches the same engines
// slice after slice (cache-hot engines), with work stealing leveling
// imbalance and the pool's run queue keeping concurrent submissions
// parallel instead of degrading them to inline-serial.
// DispatchOptions.Workers bounds the executors a dispatch may use; results
// are identical for every bound.
//
// The sliced driver's scratch — slice buffer, routing table, bucketed
// substream backing, freeAt shadow, counters and chunk cursor — is owned by
// the Farm (slicedState) and reused across slices and calls, so the
// steady-state loop
//
//	f.Reset(cfg); src.Reset(seed); f.ServeSourceSliced(src, opts); f.FinishSummary(f.LastFree())
//
// allocates nothing once warm, matching the sequential ServeSource's
// zero-allocation contract (both CI-gated via BENCH_farm.json). One-shot
// DispatchSource calls still build fresh engines so their Results never
// alias reused storage; FinishSummary is the scalar aggregate for callers
// on the reuse path.
//
// # Heterogeneous fleets
//
// The sliced driver also serves fleets whose servers run different
// configurations — the substrate of the fleet coordinator
// (internal/fleet). Farm.Server exposes each engine for per-server
// SetConfigAt/WakeAt at epoch boundaries. Every sliced call snapshots each
// engine's configuration, and Route and the index price server s from its
// own entry, exactly as Pick does from the live engine; a homogeneous farm
// is just the case where the entries agree, and a switch between calls
// reprices at once. The O(log k) index keeps serving when the entries
// differ. JSQ decides on freeAt alone and needs the server's configuration
// only to advance its shadow. LeastWorkLeft splits the servers into classes
// of equal configuration — a static policy under a sleep quorum gives two,
// parking a third, per-server SleepScale decisions up to hundreds — indexes
// each class on its own, and takes the earliest (completion, index) pair
// over the class winners, the linear scan's tie rule. Past ⌊k/4⌋ classes
// the class visits approach the scan's per-job cost (maxClasses records the
// measurements), so the driver routes through Route instead; Route stays
// the reference DispatchOptions.LinearRouting selects.
//
// Farm.Select returns a compact view over an ascending subset of the
// servers, sharing the parent's engines, so a coordinator can serve a
// shrunken active set without rebuilding state — parked or crashed servers
// keep their engines (parked ones accruing sleep residency) but receive no
// work. One view is refilled in place as the subset changes.
package farm

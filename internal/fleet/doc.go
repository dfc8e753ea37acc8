// Package fleet is the coordinator layer above the §6 farm runner: it owns
// per-server (queue.Config, policy) state and makes epoch-boundary decisions
// for a whole fleet, where core.RunFarmSource switches one fleet-wide policy.
// Three capabilities extend the per-server policy table into cluster
// management:
//
//   - Per-server policies: with Config.PerServer, every server gets its own
//     utilization predictor (fed the demand actually routed to it) and its
//     own Strategy decision each epoch, so a skewed fleet runs a different
//     (frequency, sleep-plan) pair per server. Routing prices each server
//     from its own live configuration, through the farm's O(log k) routing
//     index (one least-work-left index per configuration class) or
//     farm.ConfigRouter's linear scan.
//
//   - Coordinated, staggered sleep: Config.Quorum = Q caps a rotating duty
//     window of Q active servers to sleep states no deeper than C1, so deep
//     sleep rotates through the fleet while a bounded-wake quorum always
//     stays shallow. Wake-ups are priced exactly by the engines' existing
//     NextFreeAtAnchored machinery — the cap only truncates the installed
//     sleep plan.
//
//   - Horizontal scaling: Config.Park turns whole-server park/unpark into a
//     policy dimension. The coordinator sizes the active prefix to the
//     predicted fleet demand (ceil(W/ParkTargetRho), floored at
//     max(MinActive, Quorum)), parks surplus servers — drain under a
//     full-speed deepest-sleep configuration, then removal from routing via
//     a prefix Subfarm view — and unparks by queue.Engine.WakeAt, so an
//     unparked server's first job pays the full deep-sleep wake latency.
//
// Invariants, enforced every epoch:
//
//   - Quorum: at least min(Q, active) active servers' installed plans are no
//     deeper than C1 (their DeepestState().CPU ≤ power.C1). The duty window
//     rotates by Q per epoch over the active prefix, so deep sleep visits
//     every server.
//
//   - Park: the active set is always the prefix [0, active); routing never
//     selects a parked server (the serving view contains only the prefix),
//     and active ≥ max(MinActive, Quorum, 1). A parked server keeps draining
//     already-accepted work at full speed, then idles into the deepest
//     state; unparking wakes it at the epoch boundary, charging the wake
//     latency and energy of the occupied phase before any new job starts.
//
// The epoch cycle is the exact decide→serve→observe loop of the batch
// runners (the serve step runs on the sharded worker pool via
// farm.ServeSourceSliced between policy switches), and with shared-mode
// homogeneous decisions — no quorum, no parking — a Coordinator run is
// bit-for-bit identical to core.RunFarmSource: same decision RNG stream,
// same per-epoch records, same aggregates. The equivalence suite pins this
// across seeds and fleet sizes.
//
// Beyond the farm report's quantities, Report carries fleet rollups: peak
// power, jobs per joule, and an energy-proportionality score comparing each
// epoch's energy to the ideal proportional fleet's (busy·P_active(1)).
package fleet

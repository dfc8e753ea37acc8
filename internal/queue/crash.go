package queue

import (
	"errors"
	"fmt"
)

// ErrDown reports an operation on a crashed server: between CrashAt and
// RejoinAt the engine accepts no work, no wakes and no config switches.
var ErrDown = errors.New("queue: server is down")

// Down reports whether the engine is crashed (between CrashAt and RejoinAt).
func (e *Engine) Down() bool { return e.down }

// CrashAt takes the server down at absolute time t, retroactively losing
// the lost most recent jobs (those whose completion the caller determined
// to lie beyond t). The energy accounting is exact:
//
//   - The unserved remainder of accepted work, [t, freeAt), was pre-billed
//     at accept time at active power; it is refunded in full. The refunded
//     interval is taken out of busy time first (service is the last thing
//     scheduled before freeAt) and out of wake time for any remainder.
//   - Work already performed before t — including partial service of a job
//     lost mid-flight — stays billed: the machine really ran.
//   - If the server was idle at t, idle up to t is billed normally.
//
// The lost jobs' responses are removed from the sample; the rebuilt
// moments are bit-identical to never having recorded them (impossible
// under SetRetainResponses(false), which is rejected when lost > 0).
// After the call the engine is down: its clocks freeze at t, it consumes
// no energy, and every Process/WakeAt/SetConfigAt returns ErrDown until
// RejoinAt.
func (e *Engine) CrashAt(t float64, lost int) error {
	if e.down {
		return fmt.Errorf("%w: crash at %g while already down", ErrDown, t)
	}
	if !(t >= e.lastSeen) { // NaN-safe
		return fmt.Errorf("queue: crash at %g before last arrival %g", t, e.lastSeen)
	}
	if lost < 0 || lost > e.responses.Count() {
		return fmt.Errorf("queue: crash loses %d of %d recorded jobs", lost, e.responses.Count())
	}
	if lost > 0 && e.discardResponses {
		return fmt.Errorf("queue: cannot retract %d jobs from a moments-only response stream", lost)
	}
	e.lastSeen = t
	if e.freeAt > t {
		refund := (e.freeAt - t) * e.cfg.ActivePower
		e.energy -= refund
		span := e.freeAt - t
		busyPart := span
		if busyPart > e.busy {
			busyPart = e.busy
		}
		e.busy -= busyPart
		e.wake -= span - busyPart
	} else {
		e.billIdle(e.billed, t)
	}
	e.freeAt, e.anchor, e.billed = t, t, t
	if lost > 0 {
		e.responses.TrimBack(lost)
	}
	e.down = true
	return nil
}

// RejoinAt brings a crashed server back at absolute time t. The down
// window [crash, t) consumed nothing; the server rejoins cold, paying the
// wake transition of its deepest sleep phase (a reboot is at least as
// expensive as the deepest wake) at active power, exactly as WakeAt
// prices an unpark. It is then idle — its sleep-entry clock re-anchored —
// from t + wake latency, still under the configuration it crashed with;
// the caller installs a fresh policy at the next decision boundary.
func (e *Engine) RejoinAt(t float64) error {
	if !e.down {
		return fmt.Errorf("queue: rejoin at %g while up", t)
	}
	if !(t >= e.lastSeen) { // NaN-safe
		return fmt.Errorf("queue: rejoin at %g before crash at %g", t, e.lastSeen)
	}
	e.lastSeen = t
	e.down = false
	w := 0.0
	if n := len(e.cfg.Phases); n > 0 {
		w = e.cfg.Phases[n-1].WakeLatency
	}
	if w > 0 {
		e.wakes++
		e.wake += w
		e.energy += w * e.cfg.ActivePower
	}
	e.freeAt = t + w
	e.anchor = e.freeAt
	e.billed = e.freeAt
	return nil
}

package main

import (
	"io"
	"sync/atomic"
	"time"
)

// openFeed is the daemon's open-loop input: the generator releases
// pre-encoded wire bytes on a fixed schedule and never blocks, because the
// whole stream already sits in memory and releasing a slot only moves an
// atomic high-water mark. Read hands out released bytes and blocks, on a
// one-slot notification channel, only when it has caught up.
type openFeed struct {
	data     []byte
	released atomic.Int64
	notify   chan struct{}
	pos      int
	waitNS   int64 // time Read spent blocked on the generator
}

func newOpenFeed(data []byte) *openFeed {
	return &openFeed{data: data, notify: make(chan struct{}, 1)}
}

func (f *openFeed) Read(p []byte) (int, error) {
	if f.pos == len(f.data) {
		return 0, io.EOF
	}
	if int64(f.pos) == f.released.Load() {
		t := time.Now()
		for int64(f.pos) == f.released.Load() {
			<-f.notify
		}
		f.waitNS += int64(time.Since(t))
	}
	n := copy(p, f.data[f.pos:f.released.Load()])
	f.pos += n
	return n, nil
}

// release makes data[:off] readable.
func (f *openFeed) release(off int) {
	f.released.Store(int64(off))
	select {
	case f.notify <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// schedule is what the generator did: how late each epoch was released
// relative to when it was due, and the most epochs released but not yet
// answered.
type schedule struct {
	lagNS      []float64
	backlogMax int
	lateEpochs int // epochs released a whole period or more late
}

// generate releases epoch e's frames (ending at epochEnd[e]) at origin +
// (e+1)·period, then the end frame (ending at len(f.data)) right after the
// last epoch. answered reports how many epochs the daemon has written out.
// Closing stop ends the schedule early.
func (f *openFeed) generate(origin time.Time, period time.Duration, epochEnd []int, answered func() int, stop <-chan struct{}) schedule {
	sch := schedule{lagNS: make([]float64, len(epochEnd))}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for e, off := range epochEnd {
		due := origin.Add(time.Duration(e+1) * period)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-stop:
				return sch
			}
		}
		lag := time.Since(due)
		sch.lagNS[e] = float64(lag)
		if period > 0 && lag >= period {
			sch.lateEpochs++
		}
		f.release(off)
		if b := e + 1 - answered(); b > sch.backlogMax {
			sch.backlogMax = b
		}
	}
	f.release(len(f.data))
	return sch
}

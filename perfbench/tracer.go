package main

import (
	"bufio"
	"encoding"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"sleepscale/internal/core"
	"sleepscale/internal/fault"
	"sleepscale/internal/policy"
	"sleepscale/internal/predict"
	"sleepscale/internal/queue"
	"sleepscale/internal/stream"
)

// layer names a public interface seam the runners accept. Each seam call
// in a traced run records one span.
type layer uint8

const (
	layerStrategy layer = iota // core.Strategy.Decide
	layerPredict               // predict.Predictor
	layerStream                // stream.Source
	layerFault                 // fault.Source
	layerWire                  // the daemon's wire io.Reader
	layerNDJSON                // the daemon's NDJSON io.Writer
	numLayers
)

var layerNames = [numLayers]string{"strategy", "predict", "stream", "fault", "wire", "ndjson"}

// span is one seam call: its start in nanoseconds since the tracer's
// origin, its duration, and the epoch (request) and layer it belongs to.
// Spans are kept compact because a traced fleet pass records millions.
type span struct {
	start int64
	dur   uint32 // nanoseconds, saturating at ~4.3 s
	tag   uint32 // epoch<<8 | layer
}

func (s *span) layer() layer { return layer(s.tag & 0xff) }
func (s *span) end() int64   { return s.start + int64(s.dur) }

// spanChunk is the tracer's allocation unit: chunks never move, so an open
// span can be held by pointer, and growing never copies recorded spans.
const spanChunk = 1 << 16

// tracer keeps the spans of one traced pass in memory. All seam calls of
// the three runners happen on the runner's own goroutine, so the tracer is
// not synchronized; a span opened while another is open is its child.
type tracer struct {
	origin time.Time
	epoch  uint32
	chunks [][]span
	n      int
	topNS  int64 // busy time inside the runners' top-level calls
	// waitNS is the part of the wire spans the daemon spent blocked on
	// its open-loop feed: idle time, not wire work, so rollup takes it out.
	waitNS int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) begin(l layer) *span {
	if t.n%spanChunk == 0 {
		t.chunks = append(t.chunks, make([]span, spanChunk))
	}
	s := &t.chunks[t.n/spanChunk][t.n%spanChunk]
	t.n++
	*s = span{start: t.now(), tag: t.epoch<<8 | uint32(l)}
	return s
}

func (t *tracer) end(s *span) {
	s.dur = uint32(min(t.now()-s.start, math.MaxUint32))
}

// each calls fn on every span in start order.
func (t *tracer) each(fn func(i int, s *span)) {
	for i := 0; i < t.n; i++ {
		fn(i, &t.chunks[i/spanChunk][i%spanChunk])
	}
}

// layerStats is the per-seam rollup of a traced pass.
type layerStats struct {
	calls  [numLayers]int64
	selfNS [numLayers]int64
	// topSeamNS is the time covered by spans with no enclosing span: the
	// part of the top-level calls spent behind a seam.
	topSeamNS int64
	// decideNS holds every Decide span's duration, for its percentiles.
	decideNS []float64
}

// rollup computes self times: a span's duration minus the time its child
// spans cover. Spans are stored in start order and children nest inside
// their parent, so one stack walk finds every parent.
func (t *tracer) rollup() layerStats {
	var st layerStats
	child := make([]int64, t.n)
	type open struct {
		i   int
		end int64
	}
	stack := make([]open, 0, 8)
	t.each(func(i int, s *span) {
		for len(stack) > 0 && stack[len(stack)-1].end <= s.start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			child[stack[len(stack)-1].i] += int64(s.dur)
		} else {
			st.topSeamNS += int64(s.dur)
		}
		stack = append(stack, open{i, s.end()})
	})
	st.topSeamNS -= t.waitNS
	st.selfNS[layerWire] -= t.waitNS
	t.each(func(i int, s *span) {
		l := s.layer()
		st.calls[l]++
		st.selfNS[l] += int64(s.dur) - child[i]
		if l == layerStrategy {
			st.decideNS = append(st.decideNS, float64(s.dur))
		}
	})
	return st
}

// writeSpans writes the spans as fixed 16-byte little-endian records
// (start int64 ns, duration uint32 ns, epoch<<8|layer uint32) after a
// header line naming the layers.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "perfbench spans v1 layers=%v records=%d\n", layerNames, t.n)
	var rec [16]byte
	t.each(func(_ int, s *span) {
		binary.LittleEndian.PutUint64(rec[0:8], uint64(s.start))
		binary.LittleEndian.PutUint32(rec[8:12], s.dur)
		binary.LittleEndian.PutUint32(rec[12:16], s.tag)
		w.Write(rec[:])
	})
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Seam wrappers. Each forwards every method the runners look for on the
// wrapped value, so a traced run executes the same program as an untraced
// one: sources forward Reset and Err (read by stream.Err and the farm's
// dispatcher), predictors forward the binary codecs daemon checkpoints
// need. The farm.Dispatcher is never wrapped — farm type-switches on it to
// pick its O(log k) routing index.

type tracedSource struct {
	inner stream.Source
	t     *tracer
	jobs  int64
}

func (s *tracedSource) Next(buf []queue.Job) (int, bool) {
	i := s.t.begin(layerStream)
	n, ok := s.inner.Next(buf)
	s.t.end(i)
	s.jobs += int64(n)
	return n, ok
}

func (s *tracedSource) Reset(seed int64) {
	i := s.t.begin(layerStream)
	s.inner.Reset(seed)
	s.t.end(i)
}

func (s *tracedSource) Err() error { return stream.Err(s.inner) }

type tracedPredictor struct {
	inner predict.Predictor
	t     *tracer
}

func (p *tracedPredictor) Predict() float64 {
	i := p.t.begin(layerPredict)
	v := p.inner.Predict()
	p.t.end(i)
	return v
}

func (p *tracedPredictor) Observe(actual float64) {
	i := p.t.begin(layerPredict)
	p.inner.Observe(actual)
	p.t.end(i)
}

func (p *tracedPredictor) Name() string { return p.inner.Name() }

func (p *tracedPredictor) MarshalBinary() ([]byte, error) {
	m, ok := p.inner.(encoding.BinaryMarshaler)
	if !ok {
		return nil, fmt.Errorf("predictor %s is not checkpointable", p.inner.Name())
	}
	i := p.t.begin(layerPredict)
	b, err := m.MarshalBinary()
	p.t.end(i)
	return b, err
}

func (p *tracedPredictor) UnmarshalBinary(b []byte) error {
	u, ok := p.inner.(encoding.BinaryUnmarshaler)
	if !ok {
		return fmt.Errorf("predictor %s is not restorable", p.inner.Name())
	}
	i := p.t.begin(layerPredict)
	err := u.UnmarshalBinary(b)
	p.t.end(i)
	return err
}

// tracedStrategy times Decide. When newEpoch is set, each Decide opens a
// new epoch: the batch single-server loop decides exactly once per epoch,
// at its start.
type tracedStrategy struct {
	inner    core.Strategy
	t        *tracer
	newEpoch bool
}

func (s *tracedStrategy) Name() string { return s.inner.Name() }

func (s *tracedStrategy) Decide(in core.DecideInput) (policy.Policy, error) {
	if s.newEpoch {
		s.t.epoch++
	}
	i := s.t.begin(layerStrategy)
	p, err := s.inner.Decide(in)
	s.t.end(i)
	return p, err
}

// clockStrategy is the untraced run's only probe in the single-server batch
// loop: one clock read per Decide, which marks each epoch's start. A memory
// pass also calls probe every probeEvery epochs.
type clockStrategy struct {
	inner      core.Strategy
	marks      []time.Time
	probe      func()
	probeEvery int
}

func (s *clockStrategy) Name() string { return s.inner.Name() }

func (s *clockStrategy) Decide(in core.DecideInput) (policy.Policy, error) {
	s.marks = append(s.marks, time.Now())
	if s.probe != nil && len(s.marks)%s.probeEvery == 0 {
		s.probe()
	}
	return s.inner.Decide(in)
}

type tracedFaults struct {
	inner  fault.Source
	t      *tracer
	events int64
}

func (f *tracedFaults) Next(buf []fault.Event) (int, bool) {
	i := f.t.begin(layerFault)
	n, ok := f.inner.Next(buf)
	f.t.end(i)
	f.events += int64(n)
	return n, ok
}

func (f *tracedFaults) Reset(seed int64) {
	i := f.t.begin(layerFault)
	f.inner.Reset(seed)
	f.t.end(i)
}

type tracedReader struct {
	inner io.Reader
	t     *tracer
}

func (r *tracedReader) Read(p []byte) (int, error) {
	i := r.t.begin(layerWire)
	n, err := r.inner.Read(p)
	r.t.end(i)
	return n, err
}

// tracedWriter times the daemon's NDJSON writes. Each write is one record
// and closes the epoch it reports.
type tracedWriter struct {
	inner io.Writer
	t     *tracer
}

func (w *tracedWriter) Write(p []byte) (int, error) {
	i := w.t.begin(layerNDJSON)
	n, err := w.inner.Write(p)
	w.t.end(i)
	w.t.epoch++
	return n, err
}

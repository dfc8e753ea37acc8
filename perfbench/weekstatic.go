package main

import (
	"fmt"
	"time"

	"sleepscale"
	"sleepscale/internal/core"
	"sleepscale/internal/policy"
	"sleepscale/internal/predict"
	"sleepscale/internal/stream"
	"sleepscale/internal/trace"
)

// weekStatic is a 7-day file-server week at 60 s slots with DNS fitted
// statistics, run through core.RunSource under a static f = 1 + C6 policy
// with T = 15 and the naive predictor — the configuration of
// BenchmarkStreamRunWeekTrace. The decision is one trivial call per epoch,
// so the job stream, the queue engine and the percentile statistics do the
// work.
type weekStatic struct {
	seed  int64
	spec  sleepscale.Spec
	tr    *trace.Trace
	src   stream.Source
	strat core.Strategy
	qos   policy.QoS
}

func setupWeekStatic(seed int64) (instance, error) {
	spec := sleepscale.DNS()
	stats, err := sleepscale.NewFittedStats(spec)
	if err != nil {
		return nil, err
	}
	tr := sleepscale.FileServerTrace(7, seed)
	src, err := sleepscale.NewTraceSource(stats, tr, seed)
	if err != nil {
		return nil, err
	}
	qos, err := sleepscale.NewMeanResponseQoS(0.8, spec.MaxServiceRate())
	if err != nil {
		return nil, err
	}
	pol := sleepscale.Policy{Frequency: 1, Plan: sleepscale.SingleState(sleepscale.DeepSleep)}
	return &weekStatic{
		seed: seed, spec: spec, tr: tr, src: src, qos: qos,
		strat: sleepscale.NewStaticStrategy(pol, "static"),
	}, nil
}

func (w *weekStatic) run(t *tracer, _ int) (repOut, error) { return w.rep(t, nil) }

func (w *weekStatic) untimed(probe func()) error {
	_, err := w.rep(nil, probe)
	return err
}

func (w *weekStatic) rep(t *tracer, probe func()) (repOut, error) {
	w.src.Reset(w.seed)
	var (
		src   stream.Source     = w.src
		pred  predict.Predictor = predict.NewNaivePrevious()
		strat core.Strategy
		clock *clockStrategy
		tsrc  *tracedSource
	)
	if t == nil {
		clock = &clockStrategy{inner: w.strat, marks: make([]time.Time, 0, w.tr.Len()/15+2),
			probe: probe, probeEvery: w.tr.Len() / 15 / probeSpacing}
		strat = clock
	} else {
		tsrc = &tracedSource{inner: w.src, t: t}
		src = tsrc
		pred = &tracedPredictor{inner: pred, t: t}
		strat = &tracedStrategy{inner: w.strat, t: t, newEpoch: true}
	}
	cfg := core.RunnerConfig{
		FreqExponent: w.spec.FreqExponent,
		Profile:      sleepscale.Xeon(),
		Trace:        w.tr,
		EpochSlots:   15,
		Predictor:    pred,
		Strategy:     strat,
		Seed:         w.seed,
	}
	start := time.Now()
	rep, err := core.RunSource(cfg, src)
	end := time.Now()
	if err != nil {
		return repOut{}, err
	}
	out := repOut{wall: end.Sub(start), offered: int64(rep.Jobs), served: int64(rep.Jobs)}
	out.busy = out.wall
	if t != nil {
		t.topNS += int64(out.wall)
		out.counters = map[string]float64{"stream.jobs": float64(tsrc.jobs)}
	} else if err := out.closedLoop(append(clock.marks, end), len(rep.Epochs)); err != nil {
		return out, fmt.Errorf("week: %w", err)
	}

	fp := newFingerprinter()
	es, err := epochModel(fp, w.qos, rep.Epochs)
	if err != nil {
		return out, err
	}
	if err := checkFinite("week report", rep.MeanResponse, rep.P95Response, rep.AvgPower, rep.Energy, rep.Duration); err != nil {
		return out, err
	}
	if err := checkEnergySum(es.energies, rep.Energy); err != nil {
		return out, err
	}
	if len(rep.Epochs) != (w.tr.Len()+14)/15 {
		return out, fmt.Errorf("week: %d epochs, want %d", len(rep.Epochs), (w.tr.Len()+14)/15)
	}
	fp.add(float64(rep.Jobs), rep.MeanResponse, rep.P95Response, rep.AvgPower, rep.Energy, rep.Duration)
	out.model = modelled{
		avgPower: rep.AvgPower, meanResp: rep.MeanResponse, p95Resp: es.p95,
		epochs: es.withJobs, qosMet: es.qosMet, fingerprint: fp.h,
	}
	return out, nil
}

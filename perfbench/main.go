// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload through one of the three runners' public entry points —
// core.RunSource, fleet.Coordinator.Run or serve.Server.Serve — checks the
// outputs, and prints every metric by name and unit, the last line being a
// JSON object. With -trace 0 it reports the end-to-end metrics, measured
// without tracing; with -trace 1 it reports the per-layer metrics of a
// traced pass: spans timed at the runners' interface seams, and a CPU
// profile split by package for the layers that have no seam.
//
//	go run . -root .. -workload week-static -seed 1 -seconds 30 -trace 0
//
// workloads.json describes each workload and what it is expected to show.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"
)

// procs is GOMAXPROCS: the CPU count capped at the two CPUs the benchmark
// is calibrated on. Each runner works on one goroutine (the fleet's farm
// and the daemon's decisions run on one worker); the second CPU takes the
// garbage collector and the daemon's load generator.
var procs = min(runtime.NumCPU(), 2)

// Set-up runs at least setupMinReps times, and more, up to setupMaxReps,
// until setupMinSeconds are spent; setup_s is the median.
const (
	setupMinReps    = 5
	setupMaxReps    = 25
	setupMinSeconds = 0.25
)

type metricDef struct{ name, unit string }

// endToEnd are measured with tracing off, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"epoch_host_p50_ms", "ms"},
	{"epoch_latency_p50_ms", "ms"},
	{"served_frac", "fraction"},
	{"avg_power_w", "W"},
	{"mean_response_s", "s"},
	{"p95_response_s", "s"},
	{"qos_met_frac", "fraction"},
	{"peak_heap_mb", "MB"},
}

// perLayer are reported by the traced run, on every workload.
func perLayer() []metricDef {
	defs := []metricDef{
		{"strategy.decide_calls", "count"},
		{"strategy.decide_self_ms", "ms"},
		{"strategy.decide_p50_us", "us"},
		{"strategy.decide_p99_us", "us"},
		{"core.residual_self_ms", "ms"},
		{"stream.next_calls", "count"},
		{"stream.jobs", "count"},
		{"stream.self_ms", "ms"},
		{"predict.calls", "count"},
		{"predict.self_ms", "ms"},
		{"fault.events", "count"},
		{"fault.self_ms", "ms"},
		{"fleet.crashes", "count"},
		{"fleet.lost", "count"},
		{"fleet.requeued", "count"},
		{"fleet.dropped", "count"},
		{"fleet.retries", "count"},
		{"fleet.retry_useful_ratio", "fraction"},
		{"serve.frames_in", "count"},
		{"serve.feed_wait_ms", "ms"},
		{"serve.out_records", "count"},
		{"serve.out_bytes", "bytes"},
		{"serve.out_self_ms", "ms"},
		{"serve.checkpoint_bytes", "bytes"},
		{"loadgen.lag_p99_ms", "ms"},
		{"loadgen.backlog_max_epochs", "count"},
		{"loadgen.late_epochs", "count"},
		{"fleet.quorum_short_epochs", "count"},
		{"trace.overhead_frac", "fraction"},
		{"untraced.jobs_per_busy_s", "1/s"},
		{"untraced.epoch_host_p95_ms", "ms"},
		{"untraced.epoch_latency_p95_ms", "ms"},
		{"untraced.epoch_latency_p99_ms", "ms"},
	}
	for l := layer(0); l < numLayers; l++ {
		defs = append(defs, metricDef{"span." + layerNames[l] + "_share", "fraction"})
	}
	for _, b := range cpuBuckets() {
		defs = append(defs, metricDef{"cpu." + b + "_share", "fraction"})
	}
	return defs
}

type options struct {
	root     string
	workload string
	seed     int64
	seconds  int
	trace    int
}

func main() {
	var o options
	flag.StringVar(&o.root, "root", ".", "repository root; outputs go to <root>/.bench_build")
	flag.StringVar(&o.workload, "workload", "", "week-static, fleet-chaos or daemon-sleepscale")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	flag.Parse()
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench is one benchmark invocation's state.
type bench struct {
	o       options
	rec     workloadRecord
	outDir  string
	correct bool
	offered int64
	failed  int64
}

func run(o options) (result, error) {
	recs, err := workloadRecords()
	if err != nil {
		return result{}, err
	}
	rec, ok := recs[o.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	b := &bench{o: o, rec: rec, outDir: filepath.Join(o.root, ".bench_build", "run"), correct: true}
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return result{}, err
	}
	fmt.Printf("workload %s (%s loop, %s), seed %d, %d s, trace %d\n", rec.Name, rec.Loop, rec.Size, o.seed, o.seconds, o.trace)
	var vals map[string]float64
	var defs []metricDef
	if o.trace == 0 {
		vals, err = b.endToEnd()
		defs = endToEnd
	} else {
		vals, err = b.traced()
		defs = perLayer()
	}
	if err != nil {
		return result{}, err
	}
	res := result{Correct: b.correct, Attempted: max(b.offered, 1), Failed: b.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := vals[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("  %-30s %14.6g %s\n", d.name, v, d.unit)
	}
	return res, nil
}

func (b *bench) setup() (instance, error) {
	seed := b.o.seed
	switch b.rec.Name {
	case "week-static":
		return setupWeekStatic(seed)
	case "fleet-chaos":
		return setupFleetChaos(seed)
	case "daemon-sleepscale":
		return setupDaemon(seed, b.rec.EpochRate, b.outDir)
	}
	return nil, fmt.Errorf("workload %q has no set-up", b.rec.Name)
}

// openLoop reports whether the workload is the rate-driven daemon.
func (b *bench) openLoop() bool { return b.rec.EpochRate > 0 }

// epochsFor is the daemon's epoch count for a measured duration: fixed by
// the duration and the rate, so the modelled outputs depend on the seed
// alone.
func (b *bench) epochsFor(seconds float64, in instance) int {
	n := int(seconds * b.rec.EpochRate)
	return max(1, min(n, in.(*daemonSleepScale).weekEpochs()))
}

// rep runs one repetition and books its jobs. A repetition that errors or
// fails a check prints why and counts its jobs as failed.
func (b *bench) rep(in instance, t *tracer, size int) (repOut, bool) {
	out, err := in.run(t, size)
	b.offered += out.offered
	b.failed += out.failed
	if err != nil {
		fmt.Printf("FAILED: %v\n", err)
		b.correct = false
		b.failed += out.offered - out.failed
		return out, false
	}
	return out, true
}

// warm runs the untimed warm-up; a failure fails the run.
func (b *bench) warm(in instance) (time.Duration, error) {
	start := time.Now()
	err := in.untimed(nil)
	if err != nil {
		fmt.Printf("FAILED: warm-up: %v\n", err)
		b.correct = false
		b.offered, b.failed = 1, 1
		return 0, err
	}
	d := time.Since(start)
	fmt.Printf("warm-up %.3f s\n", d.Seconds())
	return d, nil
}

// sameModel fails the run when a repetition's modelled outputs differ from
// the first's: they depend on the seed alone.
func (b *bench) sameModel(first, got repOut, what string) {
	if first.model.fingerprint != got.model.fingerprint {
		fmt.Printf("FAILED: %s modelled outputs differ from the first repetition's (fingerprint %016x vs %016x)\n",
			what, got.model.fingerprint, first.model.fingerprint)
		b.correct = false
		b.failed += got.offered - got.failed
	}
}

// endToEnd is the untraced run: set-up several times, then repetitions for
// the measured duration (batch), or one rate-driven session (daemon).
func (b *bench) endToEnd() (map[string]float64, error) {
	var setups []float64
	var in instance
	for spent := 0.0; len(setups) < setupMinReps || spent < setupMinSeconds && len(setups) < setupMaxReps; {
		runtime.GC()
		start := time.Now()
		inst, err := b.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		spent += setups[len(setups)-1]
		in = inst
	}
	warm, err := b.warm(in)
	// Set-up is everything before measuring: building the inputs (the
	// median of the repeated builds) and the warm-up repetition.
	vals := map[string]float64{"setup_s": median(setups) + warm.Seconds()}
	if err != nil {
		return vals, nil
	}
	// The memory pass: the live heap at forced collections spread over one
	// more, untimed repetition. Sampling the heap while timing would see a
	// peak only when a collection happened to land on it. It runs before
	// the timed repetitions, whose timings the benchmark keeps and whose
	// count varies with host speed.
	var peak uint64
	probe := func() {
		runtime.GC()
		peak = max(peak, liveHeapBytes())
	}
	if err := in.untimed(probe); err != nil {
		fmt.Printf("FAILED: memory pass: %v\n", err)
		b.correct = false
	}
	vals["peak_heap_mb"] = float64(peak) / (1 << 20)
	runtime.GC()

	var outs []repOut
	budget := time.Duration(b.o.seconds) * time.Second
	if b.openLoop() {
		if out, ok := b.rep(in, nil, b.epochsFor(float64(b.o.seconds), in)); ok {
			outs = append(outs, out)
		}
	} else {
		for start := time.Now(); len(outs) == 0 || time.Since(start) < budget; {
			out, ok := b.rep(in, nil, 0)
			if !ok {
				break
			}
			if len(outs) > 0 {
				b.sameModel(outs[0], out, fmt.Sprintf("repetition %d", len(outs)))
			}
			outs = append(outs, out)
		}
	}
	if len(outs) == 0 {
		return vals, nil
	}
	// Throughput is the median over repetitions; the epoch times are
	// pooled over the run. Medians keep host stalls, which on a shared host
	// come in bursts, from moving the metrics.
	var served int64
	var busy time.Duration
	var host, lat, rates []float64
	for _, o := range outs {
		served += o.served
		busy += o.busy
		host = append(host, o.hostMS...)
		lat = append(lat, o.latMS...)
		rates = append(rates, o.rate)
	}
	vals["jobs_per_s"] = median(rates)
	vals["epoch_host_p50_ms"] = percentile(host, 50)
	vals["epoch_latency_p50_ms"] = percentile(lat, 50)
	m := outs[0].model
	vals["served_frac"] = 1 - float64(b.failed)/float64(max(b.offered, 1))
	vals["avg_power_w"] = m.avgPower
	vals["mean_response_s"] = m.meanResp
	vals["p95_response_s"] = m.p95Resp
	if m.epochs > 0 {
		vals["qos_met_frac"] = float64(m.qosMet) / float64(m.epochs)
	}
	fmt.Printf("%d repetition(s), %d jobs served in %.3f s busy (%.6g jobs per busy s); %d epoch samples (host), %d (latency); failed_frac %.6g, qos_violation_frac %.6g\n",
		len(outs), served, busy.Seconds(), float64(served)/busy.Seconds(), len(host), len(lat), 1-vals["served_frac"], 1-vals["qos_met_frac"])
	fmt.Printf("jobs/s over repetitions: p10 %.6g  p50 %.6g  p90 %.6g; pooled over the run:\n",
		percentile(rates, 10), percentile(rates, 50), percentile(rates, 90))
	for _, d := range []struct {
		name string
		xs   []float64
	}{{"epoch host", host}, {"epoch latency", lat}} {
		fmt.Printf("%s ms: p50 %.3f  p90 %.3f  p95 %.3f  p99 %.3f  p99.9 %.3f  max %.3f  (n=%d)\n", d.name,
			percentile(d.xs, 50), percentile(d.xs, 90), percentile(d.xs, 95), percentile(d.xs, 99),
			percentile(d.xs, 99.9), percentile(d.xs, 100), len(d.xs))
	}
	for _, o := range outs[:1] {
		for _, k := range sortedKeys(o.counters) {
			fmt.Printf("  (layer) %-26s %14.6g\n", k, o.counters[k])
		}
	}
	return vals, nil
}

// traced is the per-layer run: untraced repetitions for half the measured
// duration, then the same work traced with the CPU profiler on. Its
// modelled outputs must match the untraced ones bit for bit.
func (b *bench) traced() (map[string]float64, error) {
	in, err := b.setup()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	half := time.Duration(b.o.seconds) * time.Second / 2
	var plain []repOut
	size := 0
	if _, err := b.warm(in); err != nil {
		return map[string]float64{}, nil
	}
	if b.openLoop() {
		size = b.epochsFor(half.Seconds(), in)
		if out, ok := b.rep(in, nil, size); ok {
			plain = append(plain, out)
		}
	} else {
		for start := time.Now(); len(plain) == 0 || time.Since(start) < half; {
			out, ok := b.rep(in, nil, 0)
			if !ok {
				break
			}
			plain = append(plain, out)
		}
	}
	if len(plain) == 0 {
		return map[string]float64{}, nil
	}
	runtime.GC()

	profPath := filepath.Join(b.outDir, b.rec.Name+".cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, err
	}
	var traced []repOut
	for i := range plain {
		out, ok := b.rep(in, t, size)
		if !ok {
			break
		}
		b.sameModel(plain[i], out, fmt.Sprintf("traced repetition %d", i))
		traced = append(traced, out)
	}
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return nil, err
	}

	var wallPlain, wallTraced time.Duration
	for i := range traced {
		wallPlain += plain[i].busy
		wallTraced += traced[i].busy
	}
	st := t.rollup()
	vals := map[string]float64{}
	// The epoch tails from the untraced pass. On a shared host, stalls land
	// in the tail (and on the daemon queue later epochs behind the stalled
	// one), so the tails swing from run to run: they are per-layer figures,
	// without a bound.
	var host, lat []float64
	var served int64
	var busy time.Duration
	for _, o := range plain {
		host = append(host, o.hostMS...)
		lat = append(lat, o.latMS...)
		served += o.served
		busy += o.busy
	}
	// The runner's capacity: on the batch runners jobs_per_s, on the daemon
	// the jobs it could serve if it never waited for input.
	vals["untraced.jobs_per_busy_s"] = float64(served) / busy.Seconds()
	vals["untraced.epoch_host_p95_ms"] = percentile(host, 95)
	vals["untraced.epoch_latency_p95_ms"] = percentile(lat, 95)
	vals["untraced.epoch_latency_p99_ms"] = percentile(lat, 99)
	if wallPlain > 0 {
		vals["trace.overhead_frac"] = wallTraced.Seconds()/wallPlain.Seconds() - 1
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	vals["strategy.decide_calls"] = float64(st.calls[layerStrategy])
	vals["strategy.decide_self_ms"] = ms(st.selfNS[layerStrategy])
	vals["strategy.decide_p50_us"] = percentile(st.decideNS, 50) / 1e3
	vals["strategy.decide_p99_us"] = percentile(st.decideNS, 99) / 1e3
	vals["core.residual_self_ms"] = ms(t.topNS - st.topSeamNS)
	vals["stream.next_calls"] = float64(st.calls[layerStream])
	vals["stream.self_ms"] = ms(st.selfNS[layerStream])
	vals["predict.calls"] = float64(st.calls[layerPredict])
	vals["predict.self_ms"] = ms(st.selfNS[layerPredict])
	vals["fault.self_ms"] = ms(st.selfNS[layerFault])
	vals["serve.out_self_ms"] = ms(st.selfNS[layerNDJSON])
	for _, o := range traced {
		for k, v := range o.counters {
			switch k {
			case "loadgen.lag_p99_ms", "loadgen.backlog_max_epochs":
				vals[k] = math.Max(vals[k], v)
			default:
				vals[k] += v
			}
		}
	}
	vals["fleet.retry_useful_ratio"] = 1
	if lost := vals["fleet.lost"]; lost > 0 {
		vals["fleet.retry_useful_ratio"] = 1 - vals["fleet.dropped"]/lost
	}
	for l := layer(0); l < numLayers; l++ {
		if t.topNS > 0 {
			vals["span."+layerNames[l]+"_share"] = float64(st.selfNS[l]) / float64(t.topNS)
		}
	}

	split, err := profileSplit(profPath)
	if err != nil {
		return nil, fmt.Errorf("cpu split: %w", err)
	}
	for _, bk := range cpuBuckets() {
		vals["cpu."+bk+"_share"] = split.share(bk)
	}
	printSplit(os.Stdout, split, st, time.Duration(t.topNS))
	fmt.Printf("%d traced repetition(s), %d spans over %d epochs, runner time %.3f s traced vs %.3f s untraced\n",
		len(traced), t.n, t.epoch, wallTraced.Seconds(), wallPlain.Seconds())
	if err := t.writeSpans(filepath.Join(b.outDir, b.rec.Name+".spans")); err != nil {
		return nil, err
	}
	return vals, nil
}

// liveHeapBytes is the heap the last completed collection found reachable.
func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// percentile is the nearest-rank p-th percentile; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(r, 1)-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Command benchsnap runs a benchmark suite, writes a machine-readable
// snapshot so successive PRs have a perf trajectory, and enforces an
// allocs/op budget on the suite's steady-state path.
//
// CI runs it twice: once with the defaults for the policy-evaluation suite
// (BENCH_selection.json, gating the Evaluator/Engine/Sample zero-allocation
// contract) and once for the streaming workload subsystem —
//
//	go run ./cmd/benchsnap -bench 'StreamRunWeekTrace$|StreamSourceSteadyState$' \
//	    -budget-bench 'StreamSourceSteadyState$' -out BENCH_stream.json
//
// — gating the streaming generator's run loop at 0 allocs/op and recording
// the week-long-trace run's footprint.
//
// Usage:
//
//	go run ./cmd/benchsnap [-bench regex] [-benchtime 10x] [-count 3] \
//	    [-out BENCH_selection.json] [-budget 0] [-budget-bench regex] \
//	    [-floor 'regex=allocs' ...] \
//	    [-baseline BENCH_selection.json] [-max-ns-regress 0.25]
//
// -count repeats every benchmark and keeps the per-benchmark minimum — the
// noise-robust estimator — in both the snapshot and the gate comparison.
//
// The tool exits non-zero when any benchmark matching -budget-bench exceeds
// -budget allocs/op, which is how CI catches allocation regressions on the
// hot path. -floor (repeatable) attaches an individual allocs/op ceiling to
// benchmarks matching its regex — e.g. -floor 'SelectParallel$=19' — for
// paths whose API-mandated outputs keep them off the zero-alloc budget but
// whose floor must still never regress past a hard bound.
//
// With -baseline, the fresh run is additionally gated against a committed
// snapshot: any benchmark whose ns/op regresses by more than -max-ns-regress
// (fractional, default 0.25) or whose allocs/op exceeds the baseline at all
// fails the run, as does a baseline benchmark missing from the fresh run (a
// silently renamed or deleted benchmark must not pass the gate). Benchmarks
// new to the fresh run are noted but never fail — they have no baseline yet.
// The baseline is read before -out is written, so the two flags may name the
// same file: CI compares against the committed snapshot, then refreshes it
// as the uploaded artifact.
//
// Wall-clock timings and the parallel benchmarks' goroutine-scaling allocs
// depend on GOMAXPROCS, so a snapshot records the processor count it was
// measured under. To keep baselines comparable across runner shapes, the
// benchmark child process is pinned: -gomaxprocs sets its GOMAXPROCS
// explicitly, and the default (0, auto) pins it to the baseline's recorded
// count when -baseline is given — the fresh run then matches the baseline's
// machine class by construction and the full ns/op gate stays armed on any
// runner. Only when there is no baseline (or it predates the gomaxprocs
// field) does the child inherit the current processor count; a baseline
// from a genuinely unpinnable environment is still compared, with the
// environment-bound checks downgraded to notes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the serialized benchmark report. GoMaxProcs records the
// processor count the numbers were measured under: both wall-clock timings
// and the goroutine-spawn allocations of the parallel benchmarks scale with
// it, so the baseline gate treats a snapshot from a different processor
// count as a different machine class and downgrades those comparisons to
// notes (the zero-allocation contracts stay enforced — they are
// single-threaded and environment-independent).
type Snapshot struct {
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	GoMaxProcs int         `json:"gomaxprocs,omitempty"`
	BenchTime  string      `json:"benchtime"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	var floors floorFlag
	flag.Var(&floors, "floor", "repeatable allocs/op ceiling for specific benchmarks, as regex=allocs (e.g. 'SelectParallel$=19')")
	var (
		bench        = flag.String("bench", "PolicyEvaluation$|PolicySelection$|PolicySelectionSerial$|SelectParallel$|EvaluatorSteadyState$|EngineThroughput$|SamplePercentile$|FarmScaleOut|MultiCoreSimulate$", "benchmark regex passed to go test")
		benchtime    = flag.String("benchtime", "5x", "benchtime passed to go test")
		out          = flag.String("out", "BENCH_selection.json", "snapshot output path")
		budget       = flag.Float64("budget", 0, "max allocs/op allowed on budgeted benchmarks")
		budgetBench  = flag.String("budget-bench", "EvaluatorSteadyState|EngineThroughput|SamplePercentile", "regex of benchmarks the allocs/op budget applies to")
		baseline     = flag.String("baseline", "", "committed snapshot to gate regressions against; empty disables the gate")
		maxNsRegress = flag.Float64("max-ns-regress", 0.25, "max fractional ns/op regression vs -baseline before failing")
		gateBench    = flag.String("gate-bench", "", "regex of benchmarks the baseline ns/op gate applies to; empty gates all (allocs/op comparisons always apply)")
		count        = flag.Int("count", 1, "benchmark repetitions (go test -count); per-benchmark minimum is kept, the noise-robust estimator")
		gomaxprocs   = flag.Int("gomaxprocs", 0, "GOMAXPROCS for the benchmark child process; 0 pins it to the baseline's recorded count (falling back to the current count without one)")
	)
	flag.Parse()

	// Read the baseline before benches run (and before -out — possibly the
	// same file — is rewritten).
	var base *Snapshot
	if *baseline != "" {
		loaded, err := readSnapshot(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsnap: baseline: %v\n", err)
			os.Exit(1)
		}
		base = loaded
	}

	// Pin the benchmark child's processor count so timings stay comparable
	// to the baseline regardless of the runner shape benchsnap happens to
	// be invoked on.
	procs := *gomaxprocs
	if procs <= 0 {
		if base != nil && base.GoMaxProcs > 0 {
			procs = base.GoMaxProcs
		} else {
			procs = runtime.GOMAXPROCS(0)
		}
	}
	if base != nil && base.GoMaxProcs > 0 && procs == base.GoMaxProcs {
		fmt.Printf("benchsnap: benchmarks pinned to GOMAXPROCS=%d (baseline machine class)\n", procs)
	} else {
		fmt.Printf("benchsnap: benchmarks run at GOMAXPROCS=%d\n", procs)
	}

	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", *bench, "-benchmem", "-benchtime", *benchtime,
		"-count", strconv.Itoa(*count), ".")
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap: go test: %v\n%s", err, raw)
		os.Exit(1)
	}
	benches, err := parseBench(string(raw), procs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
		os.Exit(1)
	}
	benches = mergeMin(benches)
	if len(benches) == 0 {
		fmt.Fprintln(os.Stderr, "benchsnap: no benchmark lines matched")
		os.Exit(1)
	}

	snap := Snapshot{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoMaxProcs: procs,
		BenchTime:  *benchtime,
		Benchmarks: benches,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap: marshal: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap: write %s: %v\n", *out, err)
		os.Exit(1)
	}
	fmt.Printf("benchsnap: wrote %s (%d benchmarks)\n", *out, len(benches))

	re, err := regexp.Compile(*budgetBench)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap: bad -budget-bench: %v\n", err)
		os.Exit(1)
	}
	failed := false
	for _, b := range benches {
		if !re.MatchString(b.Name) {
			continue
		}
		status := "ok"
		if b.AllocsPerOp > *budget {
			status = "OVER BUDGET"
			failed = true
		}
		fmt.Printf("benchsnap: %-40s %g allocs/op (budget %g) %s\n",
			b.Name, b.AllocsPerOp, *budget, status)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchsnap: evaluation path exceeds its allocs/op budget")
		os.Exit(1)
	}

	if violations := checkFloors(benches, floors.specs); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "benchsnap: floor exceeded: %s\n", v)
		}
		os.Exit(1)
	}
	for _, spec := range floors.specs {
		fmt.Printf("benchsnap: floor %s ≤ %g allocs/op ok\n", spec.expr, spec.max)
	}

	if base != nil {
		// With the child pinned to the baseline's recorded count (the
		// default), sameEnv holds by construction and the full ns/op gate is
		// armed; it only drops when -gomaxprocs forces a different count or
		// the baseline predates the gomaxprocs field.
		sameEnv := base.GoMaxProcs == 0 || base.GoMaxProcs == procs
		if !sameEnv {
			fmt.Printf("benchsnap: baseline %s was recorded at GOMAXPROCS=%d (run at %d): timing and goroutine-alloc comparisons downgraded to notes\n",
				*baseline, base.GoMaxProcs, procs)
		}
		var nsGate *regexp.Regexp
		if *gateBench != "" {
			nsGate, err = regexp.Compile(*gateBench)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchsnap: bad -gate-bench: %v\n", err)
				os.Exit(1)
			}
		}
		regressions, notes := compareBaseline(base.Benchmarks, benches, *maxNsRegress, sameEnv, nsGate)
		for _, n := range notes {
			fmt.Printf("benchsnap: %s\n", n)
		}
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "benchsnap: regression: %s\n", r)
		}
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "benchsnap: %d regression(s) against baseline %s\n", len(regressions), *baseline)
			os.Exit(1)
		}
		fmt.Printf("benchsnap: no regressions against %s (ns/op tolerance %+.0f%%)\n",
			*baseline, *maxNsRegress*100)
	}
}

// floorSpec is one parsed -floor entry: an allocs/op ceiling for the
// benchmarks its regex matches.
type floorSpec struct {
	expr string
	re   *regexp.Regexp
	max  float64
}

// floorFlag collects repeatable -floor values of the form regex=allocs.
type floorFlag struct{ specs []floorSpec }

func (f *floorFlag) String() string {
	var parts []string
	for _, s := range f.specs {
		parts = append(parts, fmt.Sprintf("%s=%g", s.expr, s.max))
	}
	return strings.Join(parts, ",")
}

// Set parses one regex=allocs spec; the split is on the last '=' so regexes
// containing one still parse.
func (f *floorFlag) Set(v string) error {
	i := strings.LastIndex(v, "=")
	if i <= 0 {
		return fmt.Errorf("floor %q: want regex=allocs", v)
	}
	expr, num := v[:i], v[i+1:]
	re, err := regexp.Compile(expr)
	if err != nil {
		return fmt.Errorf("floor %q: %v", v, err)
	}
	max, err := strconv.ParseFloat(num, 64)
	if err != nil || max < 0 || math.IsNaN(max) || math.IsInf(max, 0) {
		return fmt.Errorf("floor %q: bad allocs/op bound %q", v, num)
	}
	f.specs = append(f.specs, floorSpec{expr: expr, re: re, max: max})
	return nil
}

// checkFloors returns one violation message per benchmark exceeding a -floor
// ceiling that matches it. A floor matching no benchmark is a violation too:
// a silently renamed benchmark must not disarm its gate.
func checkFloors(benches []Benchmark, specs []floorSpec) []string {
	var violations []string
	for _, spec := range specs {
		matched := false
		for _, b := range benches {
			if !spec.re.MatchString(b.Name) {
				continue
			}
			matched = true
			if b.AllocsPerOp > spec.max {
				violations = append(violations, fmt.Sprintf(
					"%s: %g allocs/op over floor %g (-floor %s)",
					b.Name, b.AllocsPerOp, spec.max, spec.expr))
			}
		}
		if !matched {
			violations = append(violations, fmt.Sprintf(
				"floor %s=%g matched no benchmark in this run", spec.expr, spec.max))
		}
	}
	return violations
}

// mergeMin collapses repeated -count runs of the same benchmark into one
// entry holding the per-metric minimum (scheduler and neighbor noise only
// ever inflate a measurement, so the minimum is the noise-robust estimate
// both the snapshot and the regression gate should see). First-appearance
// order is preserved.
func mergeMin(benches []Benchmark) []Benchmark {
	index := make(map[string]int, len(benches))
	var out []Benchmark
	for _, b := range benches {
		i, seen := index[b.Name]
		if !seen {
			index[b.Name] = len(out)
			out = append(out, b)
			continue
		}
		if b.NsPerOp < out[i].NsPerOp {
			out[i].NsPerOp = b.NsPerOp
		}
		if b.BytesPerOp < out[i].BytesPerOp {
			out[i].BytesPerOp = b.BytesPerOp
		}
		if b.AllocsPerOp < out[i].AllocsPerOp {
			out[i].AllocsPerOp = b.AllocsPerOp
		}
	}
	return out
}

// readSnapshot loads a previously written benchmark snapshot.
func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(snap.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in snapshot", path)
	}
	return &snap, nil
}

// compareBaseline gates fresh results against a baseline snapshot: a
// benchmark regresses when its ns/op exceeds the baseline by more than the
// fractional tolerance, or when its allocs/op grows. Zero-alloc baselines
// admit no drift at all — those are exact contracts; nonzero baselines get
// a 2-alloc / 2% grace, whichever is larger, absorbing the goroutine-stack
// recycling noise inherent to the parallel benchmarks (a real leak clears
// it immediately). A baseline benchmark missing from the fresh run is a
// regression too; fresh benchmarks without a baseline are reported as notes
// only.
//
// sameEnv=false means the baseline was recorded under a different processor
// count (a different machine class): wall-clock timings and the parallel
// benchmarks' goroutine-spawn allocations scale with GOMAXPROCS, so the
// ns/op and nonzero-alloc comparisons are downgraded to notes — comparing
// them across environments would fail builds with no code change. The
// zero-alloc contracts and the missing-benchmark check stay enforced.
//
// A non-nil nsGate restricts the ns/op comparison to benchmarks it matches
// (-gate-bench): reference legs of an A/B pair whose own wall clock is too
// noisy to gate stay in the trajectory without arming a timing failure.
// Allocs/op comparisons and the missing-benchmark check ignore the gate.
func compareBaseline(base, fresh []Benchmark, nsTolerance float64, sameEnv bool, nsGate *regexp.Regexp) (regressions, notes []string) {
	freshByName := make(map[string]Benchmark, len(fresh))
	for _, b := range fresh {
		freshByName[b.Name] = b
	}
	flag := func(enforced bool, msg string) {
		if enforced {
			regressions = append(regressions, msg)
		} else {
			notes = append(notes, msg+" (different machine class, not enforced)")
		}
	}
	baseNames := make(map[string]bool, len(base))
	for _, old := range base {
		baseNames[old.Name] = true
		now, ok := freshByName[old.Name]
		if !ok {
			regressions = append(regressions,
				fmt.Sprintf("%s: present in baseline but missing from this run", old.Name))
			continue
		}
		if limit := old.NsPerOp * (1 + nsTolerance); now.NsPerOp > limit {
			msg := fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (>%+.0f%%)",
				old.Name, now.NsPerOp, old.NsPerOp, nsTolerance*100)
			if nsGate != nil && !nsGate.MatchString(old.Name) {
				notes = append(notes, msg+" (outside -gate-bench, not enforced)")
			} else {
				flag(sameEnv, msg)
			}
		}
		allocLimit := old.AllocsPerOp
		if allocLimit > 0 {
			grace := 0.02 * allocLimit
			if grace < 2 {
				grace = 2
			}
			allocLimit += grace
		}
		if now.AllocsPerOp > allocLimit {
			flag(sameEnv || old.AllocsPerOp == 0,
				fmt.Sprintf("%s: %g allocs/op vs baseline %g",
					old.Name, now.AllocsPerOp, old.AllocsPerOp))
		}
	}
	for _, b := range fresh {
		if !baseNames[b.Name] {
			notes = append(notes, fmt.Sprintf("%s: new benchmark, no baseline yet", b.Name))
		}
	}
	return regressions, notes
}

// parseBench extracts benchmark result lines of the form
//
//	BenchmarkName-8   10   123456 ns/op   42 watts   100 B/op   3 allocs/op
//
// tolerating any number of custom unit pairs. procs is the GOMAXPROCS the
// benchmark child ran under — the testing package appends it as a -N name
// suffix (omitted at 1), which is stripped so snapshot names stay stable
// across machine classes. Trimming the known suffix exactly (rather than
// any trailing -digits) keeps benchmark names that legitimately end in a
// dash-number intact.
func parseBench(out string, procs int) ([]Benchmark, error) {
	suffix := ""
	if procs != 1 {
		suffix = fmt.Sprintf("-%d", procs)
	}
	var benches []Benchmark
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name := fields[0]
		if suffix != "" {
			name = strings.TrimSuffix(name, suffix)
		}
		b := Benchmark{
			Name:       name,
			Iterations: iters,
		}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", line, fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = val
			case "B/op":
				b.BytesPerOp = val
			case "allocs/op":
				b.AllocsPerOp = val
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = val
			}
		}
		benches = append(benches, b)
	}
	return benches, nil
}

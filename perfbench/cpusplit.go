package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// internalPkgs are the repository's internal packages, each a CPU-split
// bucket of its own.
var internalPkgs = []string{
	"analytic", "colstore", "core", "dist", "eventlog", "experiments", "farm",
	"fault", "fleet", "metrics", "multicore", "par", "policy", "power",
	"predict", "queue", "serve", "strategy", "stream", "trace", "workload",
}

// seamFrames maps the frames that identify a seam to the seam's layer. A
// sample whose stack passes through one belongs to that layer. A decision's
// candidate scoring runs partly on worker-pool goroutines whose stacks
// never pass through Decide; they pass through the closures of
// core.(*Manager).Select, which only decisions call, so those count as the
// decision seam too.
var seamFrames = []struct{ prefix, layer string }{
	{"main.(*tracedStrategy).", "strategy"},
	{"sleepscale/internal/core.(*Manager).Select", "strategy"},
	{"main.(*tracedPredictor).", "predict"},
	{"main.(*tracedSource).", "stream"},
	{"main.(*tracedFaults).", "fault"},
	{"main.(*tracedReader).", "wire"},
	{"main.(*tracedWriter).", "ndjson"},
}

// cpuBuckets lists every bucket a sample can land in, in report order.
func cpuBuckets() []string {
	b := []string{}
	seen := map[string]bool{}
	for _, s := range seamFrames {
		if !seen[s.layer] {
			seen[s.layer] = true
			b = append(b, s.layer)
		}
	}
	for _, p := range internalPkgs {
		if !seen[p] {
			b = append(b, p)
		}
	}
	return append(b, "runtime", "other")
}

// classify applies the attribution rule to one stack, leaf frame first:
// the leaf-most seam frame wins; failing that, the leaf-most
// sleepscale/internal/<pkg> frame; failing that, runtime when the leaf is
// in package runtime, and other otherwise.
func classify(frames []string) string {
	for _, f := range frames {
		for _, s := range seamFrames {
			if strings.HasPrefix(f, s.prefix) {
				return s.layer
			}
		}
	}
	const internal = "sleepscale/internal/"
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internal); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	if len(frames) > 0 && strings.HasPrefix(frames[0], "runtime.") {
		return "runtime"
	}
	return "other"
}

// cpuSplit is the sampled CPU time per bucket.
type cpuSplit struct {
	ns    map[string]int64
	total int64
}

func (c cpuSplit) share(bucket string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.ns[bucket]) / float64(c.total)
}

// parseTraces reads the text `go tool pprof -traces` prints: a header, then
// samples each opened by a dashed separator line. A sample may start with
// label lines ("key:  value"); then comes "<value>   <leaf frame>", then one
// caller frame per line. Every sample lands in exactly one bucket: a
// bucket outside cpuBuckets is a parse error, never dropped.
func parseTraces(r io.Reader) (cpuSplit, error) {
	split := cpuSplit{ns: map[string]int64{}}
	known := map[string]bool{}
	for _, b := range cpuBuckets() {
		known[b] = true
	}
	var (
		value   int64
		frames  []string
		inBlock bool // after a separator
	)
	flush := func() error {
		if len(frames) == 0 {
			return nil
		}
		b := classify(frames)
		if !known[b] {
			return fmt.Errorf("pprof traces: sample %v classified into unknown bucket %q", frames, b)
		}
		split.ns[b] += value
		split.total += value
		frames = frames[:0]
		return nil
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			if err := flush(); err != nil {
				return split, err
			}
			inBlock = true
			continue
		}
		fields := strings.Fields(line)
		if !inBlock || len(fields) == 0 {
			continue // the header, or a blank line
		}
		switch {
		case len(frames) > 0:
			frames = append(frames, strings.Join(fields, " "))
		case strings.HasSuffix(fields[0], ":"):
			// a label line before the sample's value
		case len(fields) >= 2:
			v, err := parseDuration(fields[0])
			if err != nil {
				return split, fmt.Errorf("pprof traces: %q: %w", line, err)
			}
			value = v
			frames = append(frames, strings.Join(fields[1:], " "))
		default:
			return split, fmt.Errorf("pprof traces: sample line without a frame: %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return split, err
	}
	if err := flush(); err != nil {
		return split, err
	}
	if split.total == 0 {
		return split, fmt.Errorf("pprof traces: no samples")
	}
	return split, nil
}

// parseDuration reads pprof's sample values ("10ms", "1.20s", "500us").
func parseDuration(s string) (int64, error) {
	units := []struct {
		suffix string
		ns     float64
	}{{"ns", 1}, {"us", 1e3}, {"µs", 1e3}, {"ms", 1e6}, {"s", 1e9}, {"m", 60e9}, {"h", 3600e9}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return int64(v * u.ns), nil
		}
	}
	return 0, fmt.Errorf("unknown duration %q", s)
}

// profileSplit runs `go tool pprof -traces` on a CPU profile and splits it.
func profileSplit(profile string) (cpuSplit, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return cpuSplit{}, err
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return cpuSplit{}, fmt.Errorf("go tool pprof: %w", err)
	}
	split, perr := parseTraces(out)
	if perr != nil {
		io.Copy(io.Discard, out)
	}
	werr := cmd.Wait()
	if werr != nil {
		return cpuSplit{}, fmt.Errorf("go tool pprof: %v: %s", werr, stderr.String())
	}
	return split, perr
}

// printSplit shows each bucket's sampled share, and beside each seam its
// share of traced wall time by span self time, so a mis-attribution shows.
func printSplit(w io.Writer, split cpuSplit, st layerStats, wall time.Duration) {
	fmt.Fprintf(w, "cpu split (%.0f ms sampled)      cpu share   span self share\n", float64(split.total)/1e6)
	order := cpuBuckets()
	sort.SliceStable(order, func(i, j int) bool { return split.ns[order[i]] > split.ns[order[j]] })
	for _, b := range order {
		spanShare := "-"
		for l := layer(0); l < numLayers; l++ {
			if layerNames[l] == b && wall > 0 {
				spanShare = fmt.Sprintf("%.4f", float64(st.selfNS[l])/float64(wall))
			}
		}
		fmt.Fprintf(w, "  %-30s %9.4f   %s\n", b, split.share(b), spanShare)
	}
}

package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func TestParseTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	split, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	const ms = int64(1e6)
	want := map[string]int64{
		"metrics":  1200 * ms, // leaf-most internal frame under sort.Float64s
		"stream":   30 * ms,   // through the stream.Source seam
		"queue":    500 * ms,  // routing's leaf-most internal frame is queue
		"strategy": 350 * ms,  // Decide seam, plus a pool worker inside Manager.Select
		"ndjson":   20 * ms,
		"predict":  ms / 2,
		"runtime":  50 * ms, // GC worker, and a runtime leaf under benchmark code
		"other":    10 * ms, // no seam, no internal frame, leaf outside runtime
		"colstore": 5 * ms,
	}
	var total int64
	for b, ns := range want {
		total += ns
		if got := split.ns[b]; got != ns {
			t.Errorf("%s: %d ns, want %d", b, got, ns)
		}
	}
	for b, ns := range split.ns {
		if _, ok := want[b]; !ok && ns != 0 {
			t.Errorf("unexpected bucket %s: %d ns", b, ns)
		}
	}
	if split.total != total {
		t.Fatalf("total %d ns, want %d: a sample was dropped or double-counted", split.total, total)
	}
	var sum float64
	for _, b := range cpuBuckets() {
		sum += split.share(b)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("bucket shares sum to %v, want 1", sum)
	}
}

func TestParseTracesRejectsMalformed(t *testing.T) {
	for name, text := range map[string]string{
		"no samples": "File: x\nType: cpu\n",
		"bad value":  "-----------+----\n    12parsecs   main.main\n",
		"no frame":   "-----------+----\n      10ms\n",
	} {
		if _, err := parseTraces(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"sleepscale/internal/farm.JSQ.RouteVirtual", "main.main"}, "farm"},
		{[]string{"sleepscale/internal/queue.(*Engine).Process", "main.(*tracedFaults).Next"}, "fault"},
		{[]string{"runtime.mallocgc", "sleepscale/internal/metrics.(*Sample).Add"}, "metrics"},
		{[]string{"runtime.futex"}, "runtime"},
		{[]string{"syscall.Syscall", "main.main"}, "other"},
		{nil, "other"},
	} {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

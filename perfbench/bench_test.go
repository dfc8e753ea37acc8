package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// TestTracedRunsMatchUntraced pins that the seam wrappers measure the same
// program: at one seed, each workload's traced and untraced modelled
// outputs are bit-identical.
func TestTracedRunsMatchUntraced(t *testing.T) {
	const seed = 7
	dir := t.TempDir()
	for _, c := range []struct {
		name  string
		setup func() (instance, error)
		run   func(in instance, tr *tracer) (repOut, error)
	}{
		{"week-static", func() (instance, error) { return setupWeekStatic(seed) },
			func(in instance, tr *tracer) (repOut, error) { return in.run(tr, 0) }},
		{"fleet-chaos", func() (instance, error) { return setupFleetChaos(seed) },
			func(in instance, tr *tracer) (repOut, error) { return in.run(tr, 0) }},
		{"daemon-sleepscale", func() (instance, error) { return setupDaemon(seed, 100, dir) },
			func(in instance, tr *tracer) (repOut, error) {
				return in.(*daemonSleepScale).session(tr, 40, 0, nil) // every epoch due at once
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && c.name == "fleet-chaos" {
				t.Skip("a fleet run takes seconds")
			}
			in, err := c.setup()
			if err != nil {
				t.Fatal(err)
			}
			plain, err := c.run(in, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := c.run(in, tr)
			if err != nil {
				t.Fatal(err)
			}
			if plain.model != traced.model {
				t.Errorf("modelled outputs differ: untraced %+v, traced %+v", plain.model, traced.model)
			}
			if plain.offered != traced.offered || plain.served != traced.served || plain.failed != traced.failed {
				t.Errorf("job counts differ: untraced %d/%d/%d, traced %d/%d/%d",
					plain.offered, plain.served, plain.failed, traced.offered, traced.served, traced.failed)
			}
			st := tr.rollup()
			if st.calls[layerStrategy] == 0 || st.calls[layerPredict] == 0 {
				t.Errorf("traced run recorded no decision or prediction spans: %+v", st.calls)
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metrics the program prints and
// the workloads it knows in step with the repository's BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer())
	recs, err := workloadRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(b.Workloads) {
		t.Errorf("workloads.json has %d workloads, BENCHMARK.json %d", len(recs), len(b.Workloads))
	}
	for _, w := range b.Workloads {
		if r, ok := recs[w.Name]; !ok || r.Why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json why %q, workloads.json %q", w.Name, w.Why, r.Why)
		}
	}
}

// TestOpenFeedNeverBlocksGenerator releases a whole stream with no reader:
// the generator must finish on its schedule, and a late reader must then
// see every byte and the end.
func TestOpenFeedNeverBlocksGenerator(t *testing.T) {
	data := []byte("SSW1abcdefghij")
	f := newOpenFeed(data)
	done := make(chan schedule)
	go func() {
		done <- f.generate(time.Now(), time.Millisecond, []int{6, 9, 12}, func() int { return 0 }, nil)
	}()
	select {
	case sch := <-done:
		if sch.backlogMax != 3 {
			t.Errorf("backlog max %d epochs, want 3 with nothing answered", sch.backlogMax)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("generator blocked without a reader")
	}
	got, err := io.ReadAll(f)
	if err != nil || string(got) != string(data) {
		t.Fatalf("read %q, %v; want %q", got, err, data)
	}
}

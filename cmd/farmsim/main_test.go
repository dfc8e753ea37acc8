package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sleepscale"
	"sleepscale/internal/colstore"
)

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("1, 2,16")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 16 {
		t.Errorf("parseSizes = %v", got)
	}
	for _, bad := range []string{"", "0", "-1", "a", "1,,2"} {
		if _, err := parseSizes(bad); err == nil {
			t.Errorf("parseSizes(%q) accepted", bad)
		}
	}
}

func TestBuildStream(t *testing.T) {
	src, err := buildStream(4, 5, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := sleepscale.CollectSource(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A Poisson(4/s) stream over a 250 s horizon: ≈1000 arrivals, sorted.
	if len(jobs) < 800 || len(jobs) > 1200 {
		t.Errorf("generated %d jobs, want ≈1000", len(jobs))
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Arrival < jobs[i-1].Arrival {
			t.Fatal("stream not sorted by arrival")
		}
	}
	if _, err := buildStream(-1, 5, 1000, 1); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestBuildDispatcher(t *testing.T) {
	for _, name := range []string{"jsq", "rr", "random", "pd2", "pd3", "lwl"} {
		if _, err := buildDispatcher(name, 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	d, err := buildDispatcher("pd4", 1)
	if err != nil {
		t.Fatal(err)
	}
	if pd, ok := d.(*sleepscale.PowerOfD); !ok || pd.D != 4 {
		t.Errorf("pd4 built %#v", d)
	}
	for _, bad := range []string{"nope", "pd", "pd0", "pd-1", "pdx"} {
		if _, err := buildDispatcher(bad, 1); err == nil {
			t.Errorf("dispatcher %q accepted", bad)
		}
	}
}

// TestRunTraceFarmWritesEpochLog drives the -trace path end to end on a tiny
// CSV trace and checks the appended columnar log covers both farm sizes.
func TestRunTraceFarmWritesEpochLog(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "t.csv")
	var buf strings.Builder
	buf.WriteString("slot,utilization\n")
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&buf, "%d,0.3\n", i)
	}
	if err := os.WriteFile(csvPath, []byte(buf.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "epochs.col")
	if err := runTraceFarm([]int{1, 2}, csvPath, 3, "jsq", 1, logPath, fleetFlags{}); err != nil {
		t.Fatal(err)
	}
	r, err := sleepscale.OpenCol(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// 6 slots at T=3 → 2 epochs per run, two runs appended.
	if r.Rows() != 4 {
		t.Fatalf("epoch log has %d rows, want 4", r.Rows())
	}
	res, err := colstore.Query{Col: "energy", Op: colstore.Mean, GroupBy: "epoch"}.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 || res.Groups[0].Count != 2 {
		t.Fatalf("per-epoch groups = %+v", res.Groups)
	}
	// Every run starts from a fresh predictor, so each run's epoch 0 makes
	// the same forecast: one predictor shared across sizes would carry the
	// first run's last observation into the second.
	var predicted []float64
	for b := 0; b < r.NumBlocks(); b++ {
		col, err := r.Col(b, r.Schema().ColIndex("predicted"), nil)
		if err != nil {
			t.Fatal(err)
		}
		predicted = append(predicted, col...)
	}
	if len(predicted) != 4 || predicted[0] != predicted[2] {
		t.Fatalf("epoch-0 forecasts differ across runs: predicted column %v", predicted)
	}
}

// TestRunTraceFarmCoordinated drives -coordinate -quorum -park end to end
// and checks the fleet epoch-log schema lands in the columnar output.
func TestRunTraceFarmCoordinated(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "t.csv")
	var buf strings.Builder
	buf.WriteString("slot,utilization\n")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&buf, "%d,0.3\n", i)
	}
	if err := os.WriteFile(csvPath, []byte(buf.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "fleet.col")
	fc := fleetFlags{coordinate: true, quorum: 2, park: true}
	if err := runTraceFarm([]int{4}, csvPath, 3, "jsq", 1, logPath, fc); err != nil {
		t.Fatal(err)
	}
	r, err := sleepscale.OpenCol(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Schema().Kind != colstore.KindFleetEpochs {
		t.Fatalf("log kind = %d, want fleet epochs (%d)", r.Schema().Kind, colstore.KindFleetEpochs)
	}
	// 12 slots at T=3 → 4 epochs; every epoch honors the quorum floor.
	if r.Rows() != 4 {
		t.Fatalf("fleet log has %d rows, want 4", r.Rows())
	}
	res, err := colstore.Query{Col: "shallow", Op: colstore.Min}.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups[0].Value < 2 {
		t.Fatalf("quorum violated in log: min shallow = %g, want ≥ 2", res.Groups[0].Value)
	}
}

// TestRunTraceFarmRejectsBadFleetFlags pins the flag validation: a quorum
// larger than the smallest fleet, and quorum/park without -coordinate.
func TestRunTraceFarmRejectsBadFleetFlags(t *testing.T) {
	err := runTraceFarm([]int{4}, "email-store", 3, "jsq", 1, "",
		fleetFlags{coordinate: true, quorum: 5})
	if err == nil || !strings.Contains(err.Error(), "exceeds fleet size") {
		t.Fatalf("quorum 5 over 4 servers: err = %v", err)
	}
	err = runTraceFarm([]int{4}, "email-store", 3, "jsq", 1, "", fleetFlags{quorum: 2})
	if err == nil || !strings.Contains(err.Error(), "-coordinate") {
		t.Fatalf("quorum without coordinate: err = %v", err)
	}
}

func TestLoadFarmTraceSniffs(t *testing.T) {
	dir := t.TempDir()
	colPath := filepath.Join(dir, "t.col")
	if err := sleepscale.WriteColTrace(sleepscale.EmailStoreTrace(1, 2), colPath); err != nil {
		t.Fatal(err)
	}
	tr, err := loadFarmTrace(colPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1440 {
		t.Fatalf("columnar day has %d slots, want 1440", tr.Len())
	}
	if _, err := loadFarmTrace(filepath.Join(dir, "missing"), 1); err == nil {
		t.Fatal("missing file accepted")
	}
}

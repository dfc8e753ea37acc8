package farm

import (
	"testing"

	"sleepscale/internal/queue"
)

// maskedPick is the reference "linear scan over all k servers, skipping the
// excluded ones" the Select view must match: JSQ and least-work-left
// comparisons over the full farm with down servers masked out, ties toward
// the lowest surviving index.
func maskedPick(f *Farm, disp Dispatcher, healthy []int, j queue.Job) int {
	best, first := -1, true
	var bestKey float64
	for _, s := range healthy {
		var key float64
		switch disp.(type) {
		case JSQ:
			key = f.engines[s].Backlog(j.Arrival)
		case *LeastWorkLeft:
			key = f.engines[s].NextFreeAt(j)
		default:
			panic("maskedPick: unsupported dispatcher")
		}
		if first || key < bestKey {
			best, bestKey, first = s, key, false
		}
	}
	return best
}

// TestSelectViewMatchesMaskedScan pins the tentpole routing contract: serving
// through a Select view — on the O(log k) index and both linear arms — routes
// every job to exactly the server a masked linear scan over the full farm
// (down servers skipped) would pick, with bit-identical responses.
func TestSelectViewMatchesMaskedScan(t *testing.T) {
	const k = 16
	healthy := []int{0, 2, 3, 7, 8, 9, 14}
	jobs := expJobs(4000, 10*float64(len(healthy)), 5, 11)

	for _, d := range indexedDispatchers() {
		// Reference: masked sequential scan over the full farm.
		ref, err := New(k, deepCfg(), d.mk())
		if err != nil {
			t.Fatal(err)
		}
		refResp := make([]float64, len(jobs))
		refSrv := make([]int, len(jobs))
		for i, j := range jobs {
			s := maskedPick(ref, ref.disp, healthy, j)
			r, err := ref.engines[s].Process(j)
			if err != nil {
				t.Fatalf("%s ref job %d: %v", d.name, i, err)
			}
			refResp[i], refSrv[i] = r, s
		}

		for _, linear := range []bool{false, true} {
			full, err := New(k, deepCfg(), d.mk())
			if err != nil {
				t.Fatal(err)
			}
			view, err := full.Select(nil, healthy)
			if err != nil {
				t.Fatal(err)
			}
			resp := make([]float64, len(jobs))
			srv := make([]int, len(jobs))
			view.RecordServe(resp, srv)
			n, err := view.ServeSourceSliced(&sliceSource{jobs: jobs},
				DispatchOptions{Parallel: true, SliceJobs: 333, LinearRouting: linear})
			if err != nil {
				t.Fatalf("%s linear=%v: %v", d.name, linear, err)
			}
			if n != len(jobs) {
				t.Fatalf("%s linear=%v served %d of %d", d.name, linear, n, len(jobs))
			}
			for i := range jobs {
				if got := healthy[srv[i]]; got != refSrv[i] {
					t.Fatalf("%s linear=%v job %d routed to %d, masked scan picked %d", d.name, linear, i, got, refSrv[i])
				}
				if resp[i] != refResp[i] {
					t.Fatalf("%s linear=%v job %d response %g != %g", d.name, linear, i, resp[i], refResp[i])
				}
			}
			// Engine-level totals agree server for server.
			for _, s := range healthy {
				if g, w := full.engines[s].Snapshot(), ref.engines[s].Snapshot(); g != w {
					t.Fatalf("%s linear=%v server %d totals %+v != %+v", d.name, linear, s, g, w)
				}
			}
		}
	}
}

// TestSelectViewResize drives one reused view through subsets of different
// sizes — the crash/repair cadence — checking the resized scratch and the
// rebound routing index stay bit-identical to fresh views.
func TestSelectViewResize(t *testing.T) {
	const k = 12
	phases := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7},
		{0, 2, 4, 6, 8},
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		{3, 11},
	}
	for _, d := range indexedDispatchers() {
		reused, err := New(k, deepCfg(), d.mk())
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(k, deepCfg(), d.mk())
		if err != nil {
			t.Fatal(err)
		}
		var view *Farm
		base := 0.0
		for pi, healthy := range phases {
			jobs := expJobs(1500, 6*float64(len(healthy)), 5, int64(40+pi))
			for i := range jobs {
				jobs[i].Arrival += base
			}
			base = jobs[len(jobs)-1].Arrival + 1

			view, err = reused.Select(view, healthy)
			if err != nil {
				t.Fatal(err)
			}
			respA := make([]float64, len(jobs))
			srvA := make([]int, len(jobs))
			view.RecordServe(respA, srvA)
			if _, err := view.ServeSourceSliced(&sliceSource{jobs: jobs}, DispatchOptions{Parallel: true, SliceJobs: 256}); err != nil {
				t.Fatalf("%s phase %d reused: %v", d.name, pi, err)
			}

			fv, err := fresh.Select(nil, healthy)
			if err != nil {
				t.Fatal(err)
			}
			respB := make([]float64, len(jobs))
			srvB := make([]int, len(jobs))
			fv.RecordServe(respB, srvB)
			if _, err := fv.ServeSourceSliced(&sliceSource{jobs: jobs}, DispatchOptions{Parallel: true, SliceJobs: 256}); err != nil {
				t.Fatalf("%s phase %d fresh: %v", d.name, pi, err)
			}
			for i := range jobs {
				if respA[i] != respB[i] || srvA[i] != srvB[i] {
					t.Fatalf("%s phase %d job %d: reused (%g, %d) != fresh (%g, %d)",
						d.name, pi, i, respA[i], srvA[i], respB[i], srvB[i])
				}
			}
		}
	}
}

// TestSelectRejects covers the selection guards.
func TestSelectRejects(t *testing.T) {
	f, err := New(4, deepCfg(), JSQ{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Select(nil, nil); err == nil {
		t.Fatal("empty selection accepted")
	}
	if _, err := f.Select(nil, []int{2, 1}); err == nil {
		t.Fatal("descending selection accepted")
	}
	if _, err := f.Select(nil, []int{1, 1}); err == nil {
		t.Fatal("duplicate selection accepted")
	}
	if _, err := f.Select(nil, []int{0, 4}); err == nil {
		t.Fatal("out-of-range selection accepted")
	}
	if _, err := f.Select(nil, []int{-1}); err == nil {
		t.Fatal("negative selection accepted")
	}
}

// TestSelectPrefixServes: a Select view over an ascending prefix routes only
// within the prefix and shares engine state with its parent — the fleet
// coordinator's fault-free active set.
func TestSelectPrefixServes(t *testing.T) {
	jobs := expJobs(2000, 8, 5, 19)
	f, err := New(4, testCfg(), JSQ{})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := f.Select(nil, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := make([]int, len(jobs))
	sub.RecordServe(nil, srv)
	if _, err := sub.ServeSourceSliced(&sliceSource{jobs: jobs}, DispatchOptions{}); err != nil {
		t.Fatal(err)
	}
	for i, s := range srv {
		if s > 1 {
			t.Fatalf("job %d routed to server %d outside the 2-prefix", i, s)
		}
	}
	if f.Server(0).FreeAt() == 0 || f.Server(2).FreeAt() != 0 {
		t.Fatal("prefix view serving did not share prefix engines (or leaked past the prefix)")
	}
	if _, err := f.Select(nil, []int{0, 1, 2, 3, 4}); err == nil {
		t.Error("oversized prefix accepted")
	}
}

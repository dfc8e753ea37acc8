package fleet

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sleepscale/internal/core"
	"sleepscale/internal/farm"
)

// sharedGoldenCases are the shapes of the shared-mode golden: fleet size,
// aggregate arrival rate and dispatcher, each run at seeds 1 and 2.
var sharedGoldenCases = []struct {
	k      int
	lambda float64
	disp   func() farm.Dispatcher
	name   string
}{
	{1, 5, func() farm.Dispatcher { return farm.JSQ{} }, "jsq"},
	{7, 35, func() farm.Dispatcher { return farm.JSQ{} }, "jsq"},
	{7, 35, func() farm.Dispatcher { return &farm.RoundRobin{} }, "rr"},
	{7, 35, func() farm.Dispatcher { return &farm.LeastWorkLeft{} }, "lwl"},
	{1000, 2000, func() farm.Dispatcher { return farm.JSQ{} }, "jsq"},
}

// g formats a float in its shortest exact decimal form, so two formatted
// values are equal exactly when the floats are bit-identical (NaN aside).
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// goldenLines renders every field the golden pins: each epoch record in
// full (the policy as frequency, plan name and phase count — the name fixes
// the phases of every plan rngStrategy draws), the plan-epoch counts in name
// order, and the whole-run aggregates.
func goldenLines(rep *core.RunReport) []string {
	var out []string
	for _, e := range rep.Epochs {
		out = append(out, fmt.Sprintf("epoch %d pred=%s real=%s f=%s plan=%s/%d jobs=%d mean=%s p95=%s energy=%s busy=%s wake=%s idle=%s",
			e.Index, g(e.Predicted), g(e.Realized), g(e.Policy.Frequency), e.Policy.Plan.Name, len(e.Policy.Plan.Phases),
			e.Jobs, g(e.MeanDelay), g(e.P95Delay), g(e.Energy), g(e.BusyTime), g(e.WakeTime), g(e.IdleTime)))
	}
	names := make([]string, 0, len(rep.PlanEpochs))
	for name := range rep.PlanEpochs {
		names = append(names, name)
	}
	sort.Strings(names)
	plans := "plans"
	for _, name := range names {
		plans += fmt.Sprintf(" %s=%d", name, rep.PlanEpochs[name])
	}
	out = append(out, plans)
	out = append(out, fmt.Sprintf("jobs=%d mean=%s p95=%s power=%s energy=%s duration=%s freq=%s",
		rep.Jobs, g(rep.MeanResponse), g(rep.P95Response), g(rep.AvgPower), g(rep.Energy), g(rep.Duration), g(rep.MeanFrequency)))
	return out
}

// checkGolden compares rendered lines against the checked-in golden for key,
// printing the whole rendering as Go source on a mismatch so a deliberate
// model change can regenerate it.
func checkGolden(t *testing.T, key string, got []string) {
	t.Helper()
	want, ok := sharedGolden[key]
	if !ok {
		t.Fatalf("no golden for %s", key)
	}
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return
	}
	var src strings.Builder
	fmt.Fprintf(&src, "\t%q: {\n", key)
	for _, l := range got {
		fmt.Fprintf(&src, "\t\t%q,\n", l)
	}
	src.WriteString("\t},\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var gl, wl string
		if i < len(got) {
			gl = got[i]
		}
		if i < len(want) {
			wl = want[i]
		}
		if gl != wl {
			t.Errorf("%s line %d:\n got %s\nwant %s", key, i, gl, wl)
			break
		}
	}
	t.Fatalf("%s diverges from the golden; rendering:\n%s", key, src.String())
}

// TestCoordinatorSharedMatchesRunFarmSource pins the shared-mode
// equivalence: a shared-mode coordinator with no quorum and no parking must
// reproduce, bit for bit, the golden captured from the homogeneous farm
// epoch runner that shared mode replaced (one fleet-wide decision per epoch,
// every server switched at the boundary) — every epoch record, the
// plan-epoch counts and every aggregate — across seeds, fleet sizes and
// dispatchers, with an RNG-consuming strategy so the decision stream itself
// is compared.
func TestCoordinatorSharedMatchesRunFarmSource(t *testing.T) {
	tr := flatTrace(12, 0.3)
	for _, tc := range sharedGoldenCases {
		for _, seed := range []int64{1, 2} {
			key := fmt.Sprintf("k=%d/%s/seed=%d", tc.k, tc.name, seed)
			jobs := fleetJobs(int(tc.lambda*10), tc.lambda, 5, seed+10)

			got := runShared(t, sharedCfg(tr, newRngStrategy(), seed, tc.k, tc.disp()), jobs)
			checkGolden(t, key, goldenLines(&got.RunReport))
			for i, fe := range got.FleetEpochs {
				if fe.Active != tc.k || fe.Parked != 0 || fe.Unparked != 0 {
					t.Fatalf("%s epoch %d: unexpected fleet dims %+v", key, i, fe)
				}
			}
		}
	}
}

// sharedGolden is the checked-in shared-mode output per case key,
// regenerated from the failure message of TestCoordinatorSharedMatchesRunFarmSource.
var sharedGolden = map[string][]string{
	"k=1/jsq/seed=1": {
		"epoch 0 pred=0.01 real=0.3 f=0.6779648856294451 plan=C6S3/1 jobs=18 mean=1.3954521790196341 p95=1.8181018131608901 energy=916.9862385154274 busy=4.710455743699406 wake=1 idle=0.014218610177203717",
		"epoch 1 pred=0.3 real=0.3 f=0.5749322139269298 plan=C3S0(i)/1 jobs=22 mean=2.1173246719741914 p95=3.879110213098784 energy=888.8944030714713 busy=6.142783314409586 wake=0 idle=0",
		"epoch 2 pred=0.3 real=0.3 f=0.4228064631841562 plan=C6S3/1 jobs=10 mean=4.055243954913516 p95=4.602193000509406 energy=377.07662643403523 busy=2.904481295111248 wake=0 idle=0",
		"plans C3S0(i)=1 C6S3=2",
		"jobs=50 mean=2.245034431098415 p95=4.276181428417496 power=147.77730082895417 energy=2182.957268020934 duration=14.771938963397446 freq=0.5585678542468437",
	},
	"k=1/jsq/seed=2": {
		"epoch 0 pred=0.01 real=0.3 f=0.9287780793868697 plan=none/0 jobs=27 mean=1.3366652175803762 p95=2.889226276249728 energy=1603.7340700341667 busy=6.382126663080486 wake=0 idle=0.7724566168784307",
		"epoch 1 pred=0.3 real=0.3 f=0.4107072172453364 plan=C3S0(i)/1 jobs=18 mean=6.499435790255181 p95=7.980287028516133 energy=1020.7207866677065 busy=7.912185527637778 wake=0 idle=0",
		"epoch 2 pred=0.3 real=0.3 f=0.6046758340578803 plan=C6S3/1 jobs=5 mean=7.310377215023113 p95=7.625725733167556 energy=259.17336161843514 busy=1.7424401309733977 wake=0 idle=0",
		"plans C3S0(i)=1 C6S3=1 none=1",
		"jobs=50 mean=3.79263382348758 p95=7.740662579853744 power=171.55050120791762 energy=2883.6282183203084 duration=16.809208938570094 freq=0.6480537102300289",
	},
	"k=7/jsq/seed=1": {
		"epoch 0 pred=0.01 real=0.3 f=0.6779648856294451 plan=C6S3/1 jobs=148 mean=1.521826220529091 p95=2.2524784680951493 energy=7008.39479357448 busy=36.53840556558951 wake=7 idle=0.7129646112876513",
		"epoch 1 pred=0.3 real=0.3 f=0.5749322139269298 plan=C3S0(i)/1 jobs=128 mean=3.8471034310800007 p95=5.0809993827648725 energy=6357.572997892215 busy=43.934569951896925 wake=0 idle=0",
		"epoch 2 pred=0.3 real=0.3 f=0.4228064631841562 plan=C6S3/1 jobs=74 mean=6.141490117423685 p95=7.981258298743988 energy=4923.431535552301 busy=37.92336570422273 wake=0 idle=0",
		"plans C3S0(i)=1 C6S3=2",
		"jobs=350 mean=3.3489422528739943 p95=7.312175572917836 power=1015.2045996703637 energy=18289.399327018997 duration=18.38887443652354 freq=0.5585678542468437",
	},
	"k=7/jsq/seed=2": {
		"epoch 0 pred=0.01 real=0.3 f=0.9287780793868697 plan=none/0 jobs=149 mean=0.556659357767582 p95=0.9975755157020858 energy=7327.869541818365 busy=31.307533424224154 wake=0 idle=1.3835803216457858",
		"epoch 1 pred=0.3 real=0.3 f=0.4107072172453364 plan=C3S0(i)/1 jobs=149 mean=3.5090000317047236 p95=7.077819162740883 energy=9325.52879038629 busy=72.28746087727566 wake=0 idle=0",
		"epoch 2 pred=0.3 real=0.3 f=0.6046758340578803 plan=C6S3/1 jobs=52 mean=7.312673553270323 p95=8.069108078166332 energy=2480.0874417508057 busy=16.673796488359372 wake=0 idle=0",
		"plans C3S0(i)=1 C6S3=1 none=1",
		"jobs=350 mean=2.8172636394326585 p95=7.497716441266542 power=1100.9332513333084 energy=19133.48577395546 duration=17.714287815147095 freq=0.6480537102300289",
	},
	"k=7/rr/seed=1": {
		"epoch 0 pred=0.01 real=0.3 f=0.6779648856294451 plan=C6S3/1 jobs=148 mean=1.6050500739016027 p95=3.0845029632148533 energy=7008.39479357448 busy=36.53840556558951 wake=7 idle=0.7129646112876513",
		"epoch 1 pred=0.3 real=0.3 f=0.5749322139269298 plan=C3S0(i)/1 jobs=128 mean=3.9884708979273187 p95=6.587594103095394 energy=6357.572997892215 busy=43.934569951896925 wake=0 idle=0",
		"epoch 2 pred=0.3 real=0.3 f=0.4228064631841562 plan=C6S3/1 jobs=74 mean=6.4034963213854645 p95=11.623813788838689 energy=4923.431535552301 busy=37.92336570422273 wake=0 idle=0",
		"plans C3S0(i)=1 C6S3=2",
		"jobs=350 mean=3.4912297532990246 p95=12.007437223758739 power=1016.5143578399715 energy=18289.399327018997 duration=23.95958619996527 freq=0.5585678542468437",
	},
	"k=7/rr/seed=2": {
		"epoch 0 pred=0.01 real=0.3 f=0.9287780793868697 plan=none/0 jobs=149 mean=0.7166985256922853 p95=1.4136716312238273 energy=7593.025739670005 busy=31.307533424224154 wake=0 idle=2.566495952842919",
		"epoch 1 pred=0.3 real=0.3 f=0.4107072172453364 plan=C3S0(i)/1 jobs=149 mean=3.9318058611485576 p95=8.953276637802567 energy=9338.68847623937 busy=72.28746087727563 wake=0.0004 idle=0.15888585919137466",
		"epoch 2 pred=0.3 real=0.3 f=0.6046758340578803 plan=C6S3/1 jobs=52 mean=7.679948711099598 p95=11.78805486768816 energy=2480.0874417508057 busy=16.673796488359386 wake=0 idle=0",
		"plans C3S0(i)=1 C6S3=1 none=1",
		"jobs=350 mean=3.1199556760470424 p95=11.805801335728557 power=1108.4963019554527 energy=19411.80165766018 duration=21.103963209506947 freq=0.6480537102300289",
	},
	"k=7/lwl/seed=1": {
		"epoch 0 pred=0.01 real=0.3 f=0.6779648856294451 plan=C6S3/1 jobs=148 mean=1.5793148042808602 p95=2.3283629336665115 energy=7020.168352263996 busy=36.53840556558951 wake=7 idle=1.131952465007068",
		"epoch 1 pred=0.3 real=0.3 f=0.5749322139269298 plan=C3S0(i)/1 jobs=128 mean=3.9070894669479572 p95=5.139828385566034 energy=6357.572997892215 busy=43.934569951896925 wake=0 idle=0",
		"epoch 2 pred=0.3 real=0.3 f=0.4228064631841562 plan=C6S3/1 jobs=74 mean=6.201145440311327 p95=8.047380271276587 energy=4923.4315355522995 busy=37.923365704222746 wake=0 idle=0",
		"plans C3S0(i)=1 C6S3=2",
		"jobs=350 mean=3.4078023011026977 p95=7.383869343609305 power=1012.4918260282079 energy=18301.17288570851 duration=18.450009799431086 freq=0.5585678542468437",
	},
	"k=7/lwl/seed=2": {
		"epoch 0 pred=0.01 real=0.3 f=0.9287780793868697 plan=none/0 jobs=149 mean=0.556659357767582 p95=0.9975755157020858 energy=7327.869541818365 busy=31.307533424224154 wake=0 idle=1.3835803216457858",
		"epoch 1 pred=0.3 real=0.3 f=0.4107072172453364 plan=C3S0(i)/1 jobs=149 mean=3.5090000317047236 p95=7.077819162740883 energy=9325.52879038629 busy=72.28746087727566 wake=0 idle=0",
		"epoch 2 pred=0.3 real=0.3 f=0.6046758340578803 plan=C6S3/1 jobs=52 mean=7.312673553270323 p95=8.069108078166332 energy=2480.0874417508057 busy=16.673796488359372 wake=0 idle=0",
		"plans C3S0(i)=1 C6S3=1 none=1",
		"jobs=350 mean=2.8172636394326585 p95=7.497716441266542 power=1100.9332513333084 energy=19133.48577395546 duration=17.714287815147095 freq=0.6480537102300289",
	},
	"k=1000/jsq/seed=1": {
		"epoch 0 pred=0.01 real=0.3 f=0.6779648856294451 plan=C6S3/1 jobs=7858 mean=0.7386230369847891 p95=1.5418861960930141 energy=653164.0012231732 busy=2342.830365242514 wake=1678 idle=276.85062093969805",
		"epoch 1 pred=0.3 real=0.3 f=0.5749322139269298 plan=C3S0(i)/1 jobs=7858 mean=0.3509337022636454 p95=1.0387839920922701 energy=495341.9980929962 busy=2756.833261555691 wake=0.7849999999991724 idle=1167.2669834146727",
		"epoch 2 pred=0.3 real=0.3 f=0.4228064631841562 plan=C6S3/1 jobs=4284 mean=1.0774007045245921 p95=2.0465002403392045 energy=395698.0240547401 busy=2041.6002743833415 wake=797.0000000000002 idle=967.0624293928793",
		"plans C3S0(i)=1 C6S3=2",
		"jobs=20000 mean=0.6588660737598793 p95=3.4001786218564702 power=128362.49371819504 energy=1.5442040233709095e+06 duration=14.844244498861508 freq=0.5585678542468437",
	},
	"k=1000/jsq/seed=2": {
		"epoch 0 pred=0.01 real=0.3 f=0.9287780793868697 plan=none/0 jobs=8027 mean=0.2129896378425802 p95=0.6457147107937499 energy=918176.2526779242 busy=1709.6678229623944 wake=0 idle=2386.502850349374",
		"epoch 1 pred=0.3 real=0.3 f=0.4107072172453364 plan=C3S0(i)/1 jobs=7879 mean=0.478740913008562 p95=1.43168165768021 energy=535304.3860728338 busy=3771.2117535944676 wake=0.7878999999999985 idle=590.2198865027808",
		"epoch 2 pred=0.3 real=0.3 f=0.6046758340578803 plan=C6S3/1 jobs=4094 mean=0.6199330357549028 p95=1.5620536407633718 energy=368196.83116214816 busy=1369.5763501324282 wake=857.0000000000007 idle=1317.1624815769978",
		"plans C3S0(i)=1 C6S3=1 none=1",
		"jobs=20000 mean=0.40098366624687176 p95=2.8831223236709524 power=151777.09170992603 energy=1.8216774699129062e+06 duration=12.534073811500368 freq=0.6480537102300289",
	},
}

package advisor

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/montage"
	"repro/internal/units"
)

func fixedOptions() []Option {
	// Shaped like the paper's Fig. 6 numbers (4-degree sweep).
	return []Option{
		{1, 9.10, units.Duration(84.4 * units.SecondsPerHour)},
		{2, 9.11, units.Duration(42.5 * units.SecondsPerHour)},
		{4, 9.18, units.Duration(21.5 * units.SecondsPerHour)},
		{8, 9.38, units.Duration(11.0 * units.SecondsPerHour)},
		{16, 9.80, units.Duration(5.8 * units.SecondsPerHour)},
		{32, 10.64, units.Duration(3.2 * units.SecondsPerHour)},
		{64, 12.33, units.Duration(1.8 * units.SecondsPerHour)},
		{128, 15.72, units.Duration(1.2 * units.SecondsPerHour)},
	}
}

func TestParetoFrontier(t *testing.T) {
	opts := fixedOptions()
	frontier := ParetoFrontier(opts)
	// Cost strictly increases while time strictly decreases, so every
	// option is non-dominated.
	if len(frontier) != len(opts) {
		t.Fatalf("frontier has %d options, want %d", len(frontier), len(opts))
	}
	// Add a dominated option: slower AND more expensive than 16 procs.
	opts = append(opts, Option{Processors: 24, Cost: 11, Time: units.Duration(7 * units.SecondsPerHour)})
	frontier = ParetoFrontier(opts)
	for _, o := range frontier {
		if o.Processors == 24 {
			t.Error("dominated option survived")
		}
	}
}

func TestCheapestWithin(t *testing.T) {
	opts := fixedOptions()
	got, err := CheapestWithin(opts, units.Duration(6*units.SecondsPerHour))
	if err != nil {
		t.Fatal(err)
	}
	if got.Processors != 16 {
		t.Errorf("cheapest within 6 h = %d procs, want 16", got.Processors)
	}
	if _, err := CheapestWithin(opts, 1); err == nil {
		t.Error("impossible deadline accepted")
	}
}

func TestFastestUnder(t *testing.T) {
	opts := fixedOptions()
	got, err := FastestUnder(opts, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got.Processors != 16 {
		t.Errorf("fastest under $10 = %d procs, want 16", got.Processors)
	}
	if _, err := FastestUnder(opts, 1); err == nil {
		t.Error("impossible budget accepted")
	}
}

func TestRecommendMatchesPaperCompromise(t *testing.T) {
	// §6: "If the application provisions 16 processors ... the total cost
	// of 500 mosaics would be $4,625, not much more than in the 1
	// processor case, while giving a relatively reasonable turnaround."
	got, err := Recommend(fixedOptions(), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if got.Processors != 16 {
		t.Errorf("Recommend = %d procs, want the paper's 16", got.Processors)
	}
	if _, err := Recommend(nil, 0.1); err == nil {
		t.Error("empty options accepted")
	}
	if _, err := Recommend(fixedOptions(), -1); err == nil {
		t.Error("negative slack accepted")
	}
}

func TestRecommendOnRealSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("4-degree sweep is slow")
	}
	w, err := montage.Generate(montage.FourDegree())
	if err != nil {
		t.Fatal(err)
	}
	points, err := core.ProvisioningSweep(w, core.GeometricProcessors(), core.DefaultPlan())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Recommend(FromSweep(points), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if got.Processors != 16 {
		t.Errorf("measured sweep recommends %d procs, want 16", got.Processors)
	}
}

func sampleMetrics() exec.Metrics {
	return exec.Metrics{
		Processors:         16,
		ExecTime:           units.Duration(units.SecondsPerHour),
		BytesIn:            units.Bytes(units.GB),
		BytesOut:           units.Bytes(2 * units.GB),
		StorageByteSeconds: units.GB * units.SecondsPerMonth,
		CPUSeconds:         8 * units.SecondsPerHour,
	}
}

func TestRecommendSpot(t *testing.T) {
	baseline := Option{Processors: 16, Cost: 1.00, Time: 3600}
	choices := []SpotChoice{
		{Processors: 16, CheckpointInterval: 0, Cost: 0.80, Makespan: 7200},    // cheap but 2x slower
		{Processors: 16, CheckpointInterval: 600, Cost: 0.55, Makespan: 4500},  // best: cheapest within bound
		{Processors: 32, CheckpointInterval: 600, Cost: 0.70, Makespan: 3900},  // within bound, pricier
		{Processors: 32, CheckpointInterval: 0, Cost: 1.20, Makespan: 3700},    // not cheaper at all
		{Processors: 16, CheckpointInterval: 1800, Cost: 0.55, Makespan: 5000}, // ties on cost, slower
	}
	advice, err := RecommendSpot(baseline, choices, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if !advice.UseSpot {
		t.Fatal("spot not recommended despite a 45% saving within the slowdown bound")
	}
	if advice.Choice.CheckpointInterval != 600 || advice.Choice.Processors != 16 {
		t.Errorf("chose %+v, want the 16-proc 600 s-checkpoint run", advice.Choice)
	}
	if advice.Savings < 0.44 || advice.Savings > 0.46 {
		t.Errorf("savings = %v, want 0.45", advice.Savings)
	}

	// With a tight slowdown bound nothing qualifies: stay on demand.
	advice, err = RecommendSpot(baseline, choices, 1.05)
	if err != nil {
		t.Fatal(err)
	}
	if advice.UseSpot {
		t.Errorf("recommended %+v despite no choice within a 5%% slowdown", advice.Choice)
	}
	if advice.Savings != 0 {
		t.Errorf("savings = %v without a recommendation", advice.Savings)
	}

	if _, err := RecommendSpot(Option{Cost: 1}, choices, 1.5); err == nil {
		t.Error("zero baseline turnaround accepted")
	}
	if _, err := RecommendSpot(baseline, choices, 0.5); err == nil {
		t.Error("sub-1 max slowdown accepted")
	}
}

// TestRecommendSpotFleetSplit checks that mixed-fleet choices carry
// their split through the recommendation: the advice names how many
// processors to buy reliably, not just a pool size.
func TestRecommendSpotFleetSplit(t *testing.T) {
	baseline := Option{Processors: 16, Cost: 1.00, Time: 3600}
	choices := []SpotChoice{
		{Processors: 16, OnDemand: 0, CheckpointInterval: 300, Cost: 0.60, Makespan: 6000},  // cheapest, too slow
		{Processors: 16, OnDemand: 4, CheckpointInterval: 300, Cost: 0.65, Makespan: 4800},  // best within bound
		{Processors: 16, OnDemand: 12, CheckpointInterval: 300, Cost: 0.90, Makespan: 3900}, // safe but pricier
	}
	advice, err := RecommendSpot(baseline, choices, 1.4)
	if err != nil {
		t.Fatal(err)
	}
	if !advice.UseSpot {
		t.Fatal("mixed fleet not recommended despite a qualifying split")
	}
	if advice.Choice.OnDemand != 4 {
		t.Errorf("recommended split = %d reliable, want 4", advice.Choice.OnDemand)
	}
}

func TestRankProviders(t *testing.T) {
	cheapCompute := cost.Amazon2008()
	cheapCompute.CPUPerHour = 0.01
	cheapStorage := cost.Amazon2008()
	cheapStorage.StoragePerGBMonth = 0.01
	providers := []Provider{
		{"amazon", cost.Amazon2008()},
		{"compute-discounter", cheapCompute},
		{"storage-discounter", cheapStorage},
	}
	ranked, err := RankProviders(providers, sampleMetrics(), core.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 {
		t.Fatalf("ranked %d providers, want 3", len(ranked))
	}
	// CPU dominates this run, so the compute discounter wins.
	if ranked[0].Provider.Name != "compute-discounter" {
		t.Errorf("winner = %q, want compute-discounter", ranked[0].Provider.Name)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Cost.Total() < ranked[i-1].Cost.Total() {
			t.Error("ranking not sorted by total cost")
		}
	}
}

func TestRankProvidersErrors(t *testing.T) {
	if _, err := RankProviders(nil, sampleMetrics(), core.OnDemand); err == nil {
		t.Error("empty provider list accepted")
	}
	bad := cost.Amazon2008()
	bad.CPUPerHour = -1
	if _, err := RankProviders([]Provider{{"bad", bad}}, sampleMetrics(), core.OnDemand); err == nil {
		t.Error("invalid pricing accepted")
	}
	if _, err := RankProviders([]Provider{{"a", cost.Amazon2008()}}, sampleMetrics(), core.Billing(9)); err == nil {
		t.Error("bogus billing accepted")
	}
}

// Property: the Pareto frontier never contains a dominated option, and
// every excluded option is dominated by some frontier member.
func TestPropParetoCorrect(t *testing.T) {
	f := func(raw []struct {
		C uint16
		T uint16
	}) bool {
		if len(raw) == 0 {
			return true
		}
		opts := make([]Option, len(raw))
		for i, r := range raw {
			opts[i] = Option{
				Processors: i + 1,
				Cost:       units.Money(r.C) + 1,
				Time:       units.Duration(r.T) + 1,
			}
		}
		frontier := ParetoFrontier(opts)
		inFrontier := make(map[int]bool)
		for _, f := range frontier {
			inFrontier[f.Processors] = true
		}
		dominates := func(a, b Option) bool {
			return a.Cost <= b.Cost && a.Time <= b.Time && (a.Cost < b.Cost || a.Time < b.Time)
		}
		for _, o := range opts {
			if inFrontier[o.Processors] {
				for _, f := range frontier {
					if f.Processors != o.Processors && dominates(f, o) {
						return false // frontier member dominated
					}
				}
			} else {
				found := false
				for _, f := range frontier {
					if dominates(f, o) || (f.Cost == o.Cost && f.Time == o.Time) {
						found = true
						break
					}
				}
				if !found {
					return false // excluded but not dominated
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

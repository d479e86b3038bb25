// Package advisor turns sweep measurements into provisioning decisions:
// the reasoning the paper performs by hand in §6 ("If the application
// provisions 16 processors ... not much more than in the 1 processor
// case, while giving a relatively reasonable turnaround time") and in
// its conclusions about future multi-provider clouds.
package advisor

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/units"
)

// Option is one provisioning choice: a pool size with its measured cost
// and turnaround.
type Option struct {
	Processors int
	Cost       units.Money
	Time       units.Duration
}

// FromSweep converts provisioning-sweep points into options.
func FromSweep(points []core.SweepPoint) []Option {
	opts := make([]Option, len(points))
	for i, p := range points {
		opts[i] = Option{
			Processors: p.Processors,
			Cost:       p.Result.Cost.Total(),
			Time:       p.Result.Metrics.ExecTime,
		}
	}
	return opts
}

// ParetoFrontier returns the non-dominated options (no other option is
// both cheaper and faster), sorted by cost ascending.
func ParetoFrontier(opts []Option) []Option {
	var frontier []Option
	for _, o := range opts {
		dominated := false
		for _, other := range opts {
			if other == o {
				continue
			}
			if other.Cost <= o.Cost && other.Time <= o.Time &&
				(other.Cost < o.Cost || other.Time < o.Time) {
				dominated = true
				break
			}
		}
		if !dominated {
			frontier = append(frontier, o)
		}
	}
	sort.Slice(frontier, func(i, j int) bool {
		if frontier[i].Cost != frontier[j].Cost {
			return frontier[i].Cost < frontier[j].Cost
		}
		return frontier[i].Time < frontier[j].Time
	})
	return frontier
}

// CheapestWithin returns the cheapest option whose turnaround meets the
// deadline.
func CheapestWithin(opts []Option, deadline units.Duration) (Option, error) {
	best, found := Option{}, false
	for _, o := range opts {
		if o.Time <= deadline && (!found || o.Cost < best.Cost) {
			best, found = o, true
		}
	}
	if !found {
		return Option{}, fmt.Errorf("advisor: no option meets deadline %v", deadline)
	}
	return best, nil
}

// FastestUnder returns the fastest option whose cost fits the budget.
func FastestUnder(opts []Option, budget units.Money) (Option, error) {
	best, found := Option{}, false
	for _, o := range opts {
		if o.Cost <= budget && (!found || o.Time < best.Time) {
			best, found = o, true
		}
	}
	if !found {
		return Option{}, fmt.Errorf("advisor: no option fits budget %v", budget)
	}
	return best, nil
}

// Recommend picks the paper's compromise: the fastest option whose cost
// stays within costSlack (a fraction, e.g. 0.10 for 10%) of the cheapest
// option.  On the 4-degree sweep with 10% slack this selects the
// 16-processor pool, matching the paper's own reading of Fig. 6.
func Recommend(opts []Option, costSlack float64) (Option, error) {
	if len(opts) == 0 {
		return Option{}, fmt.Errorf("advisor: no options")
	}
	if costSlack < 0 {
		return Option{}, fmt.Errorf("advisor: negative cost slack %v", costSlack)
	}
	minCost := opts[0].Cost
	for _, o := range opts {
		if o.Cost < minCost {
			minCost = o.Cost
		}
	}
	limit := minCost * units.Money(1+costSlack)
	best, found := Option{}, false
	for _, o := range opts {
		if o.Cost <= limit && (!found || o.Time < best.Time) {
			best, found = o, true
		}
	}
	if !found {
		return Option{}, fmt.Errorf("advisor: no option within %.0f%% of the minimum cost", costSlack*100)
	}
	return best, nil
}

// SpotChoice is one measured spot configuration on the cost-reliability
// frontier: a pool size, fleet split and checkpoint interval with the
// run's dollar cost and turnaround under a sampled revocation schedule.
type SpotChoice struct {
	Processors int
	// OnDemand is the reliable sub-pool of a mixed fleet: processors
	// bought at the full rate that revocations cannot touch.  0 means
	// an all-spot fleet.
	OnDemand           int
	CheckpointInterval units.Duration // 0 means restart from scratch
	Cost               units.Money
	Makespan           units.Duration
}

// SpotAdvice is RecommendSpot's outcome: whether to buy interruptible
// capacity at all, and if so which frontier point.
type SpotAdvice struct {
	UseSpot  bool
	Choice   SpotChoice // meaningful only when UseSpot
	Baseline Option
	// Savings is the fraction of the baseline bill the chosen spot
	// configuration saves (0 when UseSpot is false).
	Savings float64
}

// RecommendSpot picks the cheapest spot configuration that undercuts
// the on-demand baseline while keeping its makespan within maxSlowdown
// times the baseline turnaround (ties go to the faster choice).  When
// the choices carry mixed-fleet splits, the recommendation is therefore
// also a fleet split: how many processors to buy reliably versus on the
// spot market.  When no choice qualifies, the advice is to stay on
// demand: a discount that arrives later than tolerated, or that wasted
// work has eaten, is no discount.
func RecommendSpot(baseline Option, choices []SpotChoice, maxSlowdown float64) (SpotAdvice, error) {
	if baseline.Time <= 0 {
		return SpotAdvice{}, fmt.Errorf("advisor: non-positive baseline turnaround %v", baseline.Time)
	}
	if maxSlowdown < 1 {
		return SpotAdvice{}, fmt.Errorf("advisor: max slowdown %v below 1", maxSlowdown)
	}
	advice := SpotAdvice{Baseline: baseline}
	limit := units.Duration(float64(baseline.Time) * maxSlowdown)
	for _, c := range choices {
		if c.Cost >= baseline.Cost || c.Makespan > limit {
			continue
		}
		if !advice.UseSpot || c.Cost < advice.Choice.Cost ||
			(c.Cost == advice.Choice.Cost && c.Makespan < advice.Choice.Makespan) {
			advice.UseSpot = true
			advice.Choice = c
		}
	}
	if advice.UseSpot && baseline.Cost > 0 {
		advice.Savings = float64((baseline.Cost - advice.Choice.Cost) / baseline.Cost)
	}
	return advice, nil
}

// Provider is a named fee schedule, for the paper's closing speculation
// that "some providers will have a cheaper rate for compute resources
// while others will have a cheaper rate for storage".
type Provider struct {
	Name    string
	Pricing cost.Pricing
}

// ProviderCost is one provider's price for a measured run.
type ProviderCost struct {
	Provider Provider
	Cost     cost.Breakdown
}

// RankProviders prices the same measured run under every provider's fee
// schedule and returns them cheapest first.  Billing selects provisioned
// or on-demand CPU charging.
func RankProviders(providers []Provider, m exec.Metrics, billing core.Billing) ([]ProviderCost, error) {
	if len(providers) == 0 {
		return nil, fmt.Errorf("advisor: no providers")
	}
	out := make([]ProviderCost, 0, len(providers))
	for _, p := range providers {
		if err := p.Pricing.Validate(); err != nil {
			return nil, fmt.Errorf("advisor: provider %q: %w", p.Name, err)
		}
		var b cost.Breakdown
		switch billing {
		case core.Provisioned:
			b = p.Pricing.Provisioned(m)
		case core.OnDemand:
			b = p.Pricing.OnDemand(m)
		default:
			return nil, fmt.Errorf("advisor: unknown billing %d", billing)
		}
		out = append(out, ProviderCost{Provider: p, Cost: b})
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Cost.Total() < out[j].Cost.Total()
	})
	return out, nil
}

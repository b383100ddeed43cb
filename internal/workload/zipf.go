// Package workload implements the paper's experimental harness (§5.1): a
// social-network session workload with a zipf-distributed user population,
// the ⟨LookupBM : LookupFBM : CreateBM : AcceptFR⟩ = ⟨50:30:10:10⟩ page mix,
// a concurrent client driver with warm-up, and throughput/latency metrics —
// plus the stack builder that assembles NoCache / Invalidate / Update
// configurations of the full system.
//
// Experiments 1–5, the §5.3 microbenchmarks and the ablation run on
// simulated time (sim.go): the paper's costs charged as sleeps. time.Sleep
// rounds a charge shorter than the host timer's granularity up — on a
// 2-core Xeon VM (Linux, Go 1.24) the modelled 4 µs cache round trip
// measured 610–660 µs in `genieload -experiment micro -quick` — so the
// sweep's absolute numbers depend on the host, and its orderings are the
// reproduction target.
package workload

import (
	"math"
	"math/rand"
	"sort"
)

// Zipf samples ranks 1..N with p(rank) proportional to rank^-a — the
// paper's user-session distribution (§5.1, a = 2.0 by default; lower a is
// more uniform, exercised by Experiment 3).
type Zipf struct {
	n   int
	cdf []float64
}

// NewZipf builds a sampler over ranks 1..n with parameter a > 0.
func NewZipf(n int, a float64) *Zipf {
	if n < 1 {
		n = 1
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += math.Pow(float64(i), -a)
		cdf[i-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{n: n, cdf: cdf}
}

// Sample draws a rank in [1, n].
func (z *Zipf) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= z.n {
		i = z.n - 1
	}
	return i + 1
}

// N returns the population size.
func (z *Zipf) N() int { return z.n }

// UserSampler picks the user for each session according to the paper's
// model (§5.1): p(x) = x^-a/ζ(a) is the probability that a user has x
// sessions. By the standard Zipf–Pareto duality, a population whose counts
// follow that distribution has a rank-frequency curve freq(rank) ∝
// rank^(-1/(a-1)), so sessions sample user ranks with exponent
// β = 1/(a-1).
//
// A LOWER a therefore means a HIGHER rank exponent — the workload
// concentrates on a few power users — matching the paper's reading ("a low
// value of the zipfian parameter a means the workload is more skewed") and
// the direction of Figure 3b, where the cached systems speed up as a drops
// from 2.0 to 1.1.
type UserSampler struct {
	ranks *Zipf
}

// minDualityA keeps the duality exponent finite as a approaches 1.
const minDualityA = 1.05

// NewUserSampler builds the sampler for the given population and paper
// parameter a. The rng parameter is accepted for symmetry with other
// samplers but the construction is deterministic.
func NewUserSampler(users int, a float64, _ *rand.Rand) *UserSampler {
	if a < minDualityA {
		a = minDualityA
	}
	beta := 1 / (a - 1)
	return &UserSampler{ranks: NewZipf(users, beta)}
}

// Sample draws a user id in [1, users].
func (s *UserSampler) Sample(rng *rand.Rand) int { return s.ranks.Sample(rng) }

// TopUserShare reports the probability mass of the most frequent user
// (diagnostics and tests).
func (s *UserSampler) TopUserShare() float64 {
	return s.ranks.cdf[0]
}

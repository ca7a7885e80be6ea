package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"mzqos/internal/dist"
	"mzqos/internal/workload"
)

// Stream tags separate the random streams derived from one workload
// seed, so adding draws to one input never shifts another.
const (
	tagCatalog  = 0xc47a
	tagArrivals = 0xa221
	tagServer   = 0x5e2f
	tagFaults   = 0xfa17
	tagSweep    = 0x5eed
)

// rngFor returns the reproducible random stream for one input.
func rngFor(seed, tag uint64) *rand.Rand { return dist.NewRand(seed, tag) }

// subSeed derives a 64-bit seed for one input (splitmix64 finalizer).
func subSeed(seed, tag uint64) uint64 {
	x := seed ^ (tag * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// poisson draws a Poisson count by Knuth's product method (small means).
func poisson(lambda float64, r *rand.Rand) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// geometric draws a count of failures before the first success with
// success probability 1/mean.
func geometric(mean float64, r *rand.Rand) int {
	if mean < 1 {
		mean = 1
	}
	p := 1 / mean
	n := 0
	for r.Float64() > p && n < 1<<20 {
		n++
	}
	return n
}

// clip is one catalog object: a name and its per-round fragment sizes
// (nil sizes with Rounds set means the server draws them itself).
type clip struct {
	name   string
	rounds int
	sizes  []float64
}

// steadyCatalog generates the steady workload's synthetic clips: lengths
// uniform in [minRounds, maxRounds]; the server draws the fragment sizes
// from its own size model.
func steadyCatalog(seed uint64, n, minRounds, maxRounds int) []clip {
	r := rngFor(seed, tagCatalog)
	out := make([]clip, n)
	for i := range out {
		out[i] = clip{name: fmt.Sprintf("clip-%04d", i), rounds: minRounds + r.IntN(maxRounds-minRounds+1)}
	}
	return out
}

// churnCatalog generates the churn workload's clips: geometric lengths,
// rescaled so that their mean weighted by the popularity law is
// meanRounds (so every seed offers the cluster the same load), with
// fragment sizes drawn from the paper's Gamma law.
func churnCatalog(seed uint64, n int, meanRounds float64, pop *workload.Zipf) []clip {
	r := rngFor(seed, tagCatalog)
	lengths := make([]float64, n)
	var weighted float64
	for i := range lengths {
		lengths[i] = float64(1 + geometric(meanRounds-1, r))
		weighted += pop.Prob(i) * lengths[i]
	}
	sizes := workload.PaperSizes()
	out := make([]clip, n)
	for i := range out {
		length := max(1, int(math.Round(lengths[i]*meanRounds/weighted)))
		frag := make([]float64, length)
		for j := range frag {
			frag[j] = sizes.Sample(r)
		}
		out[i] = clip{name: fmt.Sprintf("clip-%04d", i), rounds: length, sizes: frag}
	}
	return out
}

// arrivals is an open-loop arrival stream in simulated time: each round a
// Poisson number of opens, each naming a catalog object drawn from the
// popularity law, independent of what admission did with earlier opens.
type arrivals struct {
	r      *rand.Rand
	lambda float64
	pop    *workload.Zipf
}

func newArrivals(seed, tag uint64, lambda float64, pop *workload.Zipf) *arrivals {
	return &arrivals{r: rngFor(seed, tag), lambda: lambda, pop: pop}
}

// count draws this round's number of arrivals.
func (a *arrivals) count() int { return poisson(a.lambda, a.r) }

// object draws the catalog index one arrival asks for.
func (a *arrivals) object() int { return a.pop.Sample(a.r) }

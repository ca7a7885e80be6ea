package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"
)

// samples collects host-time durations in nanoseconds. The backing array
// is sized up front for the whole phase, so recording does not allocate
// inside a measured loop.
type samples struct{ ns []int64 }

func newSamples(capacity int) *samples { return &samples{ns: make([]int64, 0, capacity)} }

func (s *samples) add(d time.Duration) { s.ns = append(s.ns, int64(d)) }

func (s *samples) len() int { return len(s.ns) }

// bytes is the size of the backing array.
func (s *samples) bytes() int64 { return int64(cap(s.ns)) * 8 }

// quantile returns the nearest-rank q-quantile in nanoseconds (0 when
// empty).
func (s *samples) quantile(q float64) float64 {
	return quantileNS(slices.Clone(s.ns), q)
}

// chunkedQuantile splits the samples, in recording order, into equal
// chunks of at least minChunk samples (at most maxChunks of them) and
// returns the median over chunks of each chunk's q-quantile, with the
// chunk count. Interference from the host that slows one stretch of the
// run moves one chunk, not the reported value.
func (s *samples) chunkedQuantile(q float64, minChunk, maxChunks int) (float64, int) {
	chunks := min(maxChunks, len(s.ns)/minChunk)
	if chunks < 1 {
		return s.quantile(q), 1
	}
	n := len(s.ns) / chunks
	vals := make([]float64, chunks)
	for c := range vals {
		vals[c] = quantileNS(slices.Clone(s.ns[c*n:(c+1)*n]), q)
	}
	return median(vals), chunks
}

func quantileNS(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	slices.Sort(ns)
	i := int(math.Ceil(q*float64(len(ns)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(ns[i])
}

// tailSamples is the fewest samples a p99 is taken from: they leave at
// least ten samples beyond it, as the benchmark's percentile rule
// requires.
const tailSamples = 1000

// tailQuantile returns the p99 as the median over chunks of at least
// tailSamples samples each.
func (s *samples) tailQuantile(what string) (float64, string, error) {
	if n := s.len(); n < tailSamples {
		return 0, "", fmt.Errorf("%s: %d samples leave fewer than ten beyond p99", what, n)
	}
	v, chunks := s.chunkedQuantile(0.99, tailSamples, 10)
	return v, fmt.Sprintf("n=%d, median of %d chunk p99s", s.len(), chunks), nil
}

// base names a percentile's sample count.
func (s *samples) base() string { return fmt.Sprintf("n=%d", s.len()) }

// rate records work done and host time taken per unit (a round or a
// sweep batch) for a throughput.
type rate struct{ work, ns []int64 }

func newRate(capacity int) *rate {
	return &rate{work: make([]int64, 0, capacity), ns: make([]int64, 0, capacity)}
}

// bytes is the size of the backing arrays.
func (r *rate) bytes() int64 { return int64(cap(r.work)+cap(r.ns)) * 8 }

func (r *rate) add(work int64, d time.Duration) {
	r.work = append(r.work, work)
	r.ns = append(r.ns, int64(d))
}

// perSecond splits the units, in recording order, into chunks of
// unitsPerChunk and returns the median over chunks of each chunk's work
// per host second, with its base. Short chunks let the median step over
// the stretches a collection or the host's other load slowed down.
func (r *rate) perSecond(unitsPerChunk int) (float64, string) {
	chunks := len(r.ns) / unitsPerChunk
	if chunks == 0 {
		return 0, "no complete chunk"
	}
	vals := make([]float64, chunks)
	var work, ns int64
	for c := range vals {
		var w, t int64
		for i := c * unitsPerChunk; i < (c+1)*unitsPerChunk; i++ {
			w += r.work[i]
			t += r.ns[i]
		}
		vals[c] = ratio(float64(w), float64(t)/1e9)
		work += w
		ns += t
	}
	return median(vals), fmt.Sprintf("median of %d chunks of %d; %d in %.3fs", chunks, unitsPerChunk, work, float64(ns)/1e9)
}

// median of float64 values (0 when empty); sorts in place.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// mallocs reads the process's cumulative heap-allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// programHeapMB forces two collections, the second emptying what the
// first moved into sync.Pool victim caches, and returns the live heap in
// MB less own, the bytes of the benchmark's sample buffers, which grow
// with --seconds: what remains is the program's heap.
func programHeapMB(own ...interface{ bytes() int64 }) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap := int64(ms.HeapAlloc)
	for _, b := range own {
		heap -= b.bytes()
	}
	return float64(heap) / 1e6
}

// ratio returns num/den (0 when den is 0).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// phase is a measured phase: a fixed horizon of work units whose
// simulated outcomes are deterministic for a seed, followed by more units
// until the host deadline, which only add host-time samples.
type phase struct {
	horizon  int
	deadline time.Time
	units    int
}

func newPhase(horizon int, d time.Duration) *phase {
	return &phase{horizon: horizon, deadline: time.Now().Add(d)}
}

// next reports whether another unit should run and whether it lies
// inside the deterministic horizon.
func (p *phase) next() (more, inHorizon bool) {
	if p.units < p.horizon {
		p.units++
		return true, true
	}
	if time.Now().Before(p.deadline) {
		p.units++
		return true, false
	}
	return false, false
}

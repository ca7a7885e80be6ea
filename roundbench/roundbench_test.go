package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"mzqos/internal/engine"
	"mzqos/internal/workload"
)

func TestSameSeedSameInputs(t *testing.T) {
	if !reflect.DeepEqual(steadyCatalog(7, 64, 200, 400), steadyCatalog(7, 64, 200, 400)) {
		t.Error("steady catalog differs for one seed")
	}
	pop, err := workload.NewZipf(churnClips, churnZipf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(churnCatalog(7, churnClips, churnMeanRounds, pop), churnCatalog(7, churnClips, churnMeanRounds, pop)) {
		t.Error("churn catalog differs for one seed")
	}
	if reflect.DeepEqual(churnCatalog(7, churnClips, churnMeanRounds, pop), churnCatalog(8, churnClips, churnMeanRounds, pop)) {
		t.Error("churn catalog identical for two seeds")
	}
	draw := func(seed uint64) []int {
		a := newArrivals(seed, tagArrivals, churnArrivals, pop)
		var out []int
		for r := 0; r < 200; r++ {
			for k := a.count(); k > 0; k-- {
				out = append(out, a.object())
			}
			out = append(out, -1) // round boundary
		}
		return out
	}
	if !slices.Equal(draw(7), draw(7)) {
		t.Error("arrivals differ for one seed")
	}
	if slices.Equal(draw(7), draw(8)) {
		t.Error("arrivals identical for two seeds")
	}
}

func TestChurnCatalogOffersTheConfiguredLoad(t *testing.T) {
	pop, err := workload.NewZipf(churnClips, churnZipf)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 5; seed++ {
		var mean float64
		for i, c := range churnCatalog(seed, churnClips, churnMeanRounds, pop) {
			if c.rounds != len(c.sizes) || c.rounds < 1 {
				t.Fatalf("seed %d clip %d: %d rounds, %d sizes", seed, i, c.rounds, len(c.sizes))
			}
			mean += pop.Prob(i) * float64(c.rounds)
		}
		if mean < churnMeanRounds-1 || mean > churnMeanRounds+1 {
			t.Errorf("seed %d: popularity-weighted mean length %.2f, want about %d", seed, mean, churnMeanRounds)
		}
	}
}

// steadyDigest runs a steady server for a few hundred rounds.
func steadyDigest(t *testing.T, seed uint64, l layers) uint64 {
	t.Helper()
	g, err := newSteadyRig(seed, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := g.round(nil, nil, nil, modeHorizon); err != nil {
			t.Fatal(err)
		}
	}
	return g.dig.h
}

func TestSteadyDigest(t *testing.T) {
	a := steadyDigest(t, 3, allLayers)
	if b := steadyDigest(t, 3, allLayers); a != b {
		t.Errorf("one seed gave digests %016x and %016x", a, b)
	}
	if b := steadyDigest(t, 3, layers{}); a != b {
		t.Errorf("observability changed the digest: all on %016x, bare %016x", a, b)
	}
	if b := steadyDigest(t, 4, allLayers); a == b {
		t.Errorf("seeds 3 and 4 gave the same digest %016x", a)
	}
}

func churnDigest(t *testing.T, seed uint64) uint64 {
	t.Helper()
	g, err := newChurnRig(seed, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := g.round(nil, nil, modeHorizon); err != nil {
			t.Fatal(err)
		}
	}
	return g.dig.h
}

func TestChurnDigest(t *testing.T) {
	a := churnDigest(t, 3)
	if b := churnDigest(t, 3); a != b {
		t.Errorf("one seed gave digests %016x and %016x", a, b)
	}
	if b := churnDigest(t, 4); a == b {
		t.Errorf("seeds 3 and 4 gave the same digest %016x", a)
	}
}

func TestMonteCarloDigest(t *testing.T) {
	run := func(seed uint64) uint64 {
		o, err := mcPhase(seed, 0.05, nil)
		if err != nil {
			t.Fatal(err)
		}
		return o.dig.h
	}
	a := run(3)
	if b := run(3); a != b {
		t.Errorf("one seed gave digests %016x and %016x", a, b)
	}
	if b := run(4); a == b {
		t.Errorf("seeds 3 and 4 gave the same digest %016x", a)
	}
}

func TestChecksTrip(t *testing.T) {
	report := func(requests ...int) *engine.RoundReport {
		rep := &engine.RoundReport{}
		for _, n := range requests {
			rep.Disks = append(rep.Disks, engine.DiskRoundReport{Requests: n})
		}
		return rep
	}
	cases := []struct {
		name string
		err  error
		want bool // true: the check must trip
	}{
		{"golden ok", checkGolden(26, 28, 0.003612), false},
		{"golden plate", checkGolden(25, 28, 0.00361), true},
		{"golden perror", checkGolden(26, 27, 0.00361), true},
		{"golden bound", checkGolden(26, 28, 0.00371), true},
		{"disk load ok", checkDiskLoad(report(26, 0, 26), 26), false},
		{"disk load over", checkDiskLoad(report(26, 27), 26), true},
		{"capacity ok", checkCapacity(416, 416), false},
		{"capacity over", checkCapacity(417, 416), true},
		{"late fraction ok", checkLateFraction(3, 1000, 0.00361), false},
		{"late fraction over", checkLateFraction(4, 1000, 0.00361), true},
		{"late fraction empty", checkLateFraction(0, 0, 0.00361), true},
		{"tickets ok", checkTickets(9, 400, 400), false},
		{"tickets leak", checkTickets(9, 401, 400), true},
		{"seq ok", checkSeq(5, 5), false},
		{"seq back", checkSeq(5, 4), true},
		{"wilson ok", checkWilson(26, 0, 1000, 0.00361), false},
		{"wilson refuted", checkWilson(26, 50, 1000, 0.00361), true},
		{"digests ok", checkDigests([]string{"a", "b"}, []uint64{1, 1}), false},
		{"digests differ", checkDigests([]string{"a", "b"}, []uint64{1, 2}), true},
	}
	for _, c := range cases {
		if tripped := c.err != nil; tripped != c.want {
			t.Errorf("%s: err = %v, want tripped %v", c.name, c.err, c.want)
		}
		if c.err != nil && !errors.Is(c.err, errCheck) {
			t.Errorf("%s: %v does not wrap errCheck", c.name, c.err)
		}
	}
}

func TestCovered(t *testing.T) {
	ivs := [][2]int64{{5, 15}, {0, 8}, {20, 30}, {25, 40}}
	// Union within [2, 35): [2, 15) and [20, 35).
	if got := covered(2, 35, ivs); got != 28 {
		t.Errorf("covered = %d, want 28", got)
	}
	if got := covered(0, 10, nil); got != 0 {
		t.Errorf("covered with no children = %d, want 0", got)
	}
}

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not found: %v", err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResultLine runs a short untraced montecarlo run and checks the
// last output line against the result contract and BENCHMARK.json.
func TestResultLine(t *testing.T) {
	b := readBenchmarkFile(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "montecarlo", "--seed", "2", "--seconds", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range res {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Fatalf("result keys %v, want %v", keys, want)
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(b.EndToEnd) {
		t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(metrics), len(b.EndToEnd))
	}
	for _, m := range b.EndToEnd {
		got, ok := metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
		case got.Value == 0:
			t.Errorf("metric %s is 0", m.Name)
		}
	}
}

func TestPerLayerMatchesBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the traced run prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s %s, traced run %s %s",
				i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestParseArgs(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--seconds", "0"},
		{"--trace", "2"},
		{"--workload", "montecarlo", "--trace", "1", "--seconds", "23"},
		{"--workload", "churn", "--trace", "1", "--seconds", "1"},
	} {
		if _, err := parseArgs(args, &bytes.Buffer{}); err == nil {
			t.Errorf("parseArgs(%v) accepted", args)
		}
	}
	if _, err := parseArgs([]string{"--workload", "montecarlo", "--trace", "1"}, &bytes.Buffer{}); err != nil {
		t.Errorf("default --seconds rejected for a traced run: %v", err)
	}
}

// TestTracedMinSeconds checks that the shortest accepted traced run
// leaves its untraced phase enough rounds for a p99.
func TestTracedMinSeconds(t *testing.T) {
	for name, w := range workloads {
		m := tracedMinSeconds(name)
		if units := int(float64(m) * w.tracedShare * w.unitsPerSecond); units < tailSamples {
			t.Errorf("%s: --seconds %d leaves %d rounds, want >= %d", name, m, units, tailSamples)
		}
	}
}

// TestHeapExcludesSampleBuffers checks that heap_mb is the program's
// heap: the benchmark's sample buffers grow with the phase length, and
// the figure must not.
func TestHeapExcludesSampleBuffers(t *testing.T) {
	heap := func(seconds float64) float64 {
		o, err := steadyPhase(3, seconds, nil)
		if err != nil {
			t.Fatal(err)
		}
		return o.heapMB
	}
	// The longer phase holds about 0.5 MB more of sample buffers.
	short, long := heap(0.5), heap(1.5)
	if d := long - short; d > 0.2 || d < -0.2 {
		t.Errorf("heap_mb %.3f MB after 0.5 s, %.3f MB after 1.5 s", short, long)
	}
}

// TestTracedChurnSpans drives a traced cluster for a few rounds: every
// shard span must hang under a main-loop span and self times must lie
// within their parent's duration.
func TestTracedChurnSpans(t *testing.T) {
	tr := newTracer(time.Now(), 1024)
	g, err := newChurnRig(5, 1000, tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := g.round(nil, tr, modeHorizon); err != nil {
			t.Fatal(err)
		}
	}
	children := make([]*tracer, len(g.traced))
	for i, te := range g.traced {
		children[i] = te.tr
		if len(te.tr.durations(spanShardStep)) != 100 {
			t.Errorf("shard %d recorded %d steps, want 100", i, len(te.tr.durations(spanShardStep)))
		}
		for _, sp := range te.tr.spans {
			if sp.parent < 0 || int(sp.parent) >= len(tr.spans) {
				t.Fatalf("shard %d span has no main-loop parent", i)
			}
			if p := tr.spans[sp.parent]; sp.start < p.start || sp.end > p.end {
				t.Errorf("shard %d span [%d, %d) outside its parent [%d, %d)", i, sp.start, sp.end, p.start, p.end)
			}
		}
	}
	steps := tr.durations(spanStep)
	self := selfTimes(tr, spanStep, children)
	for i := range self {
		if self[i] < 0 || self[i] > steps[i] {
			t.Errorf("round %d: self time %d outside [0, %d]", i, self[i], steps[i])
		}
	}
}

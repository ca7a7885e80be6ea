// Package benchcases defines the admission-path benchmark suite shared by
// the root package's go-test benchmarks and the cmd/mzbench trajectory
// harness, so both always measure the same operations. Each case pits the
// optimized path (warm-started solves, prefix-summed glitch bounds,
// bisection searches, parallel table builds) against the retained seed
// implementation in the same binary, which is how the recorded speedups
// stay honest across machines and future PRs.
package benchcases

import (
	"fmt"
	"io"
	"testing"

	"mzqos/internal/chernoff"
	"mzqos/internal/cluster"
	"mzqos/internal/disk"
	"mzqos/internal/engine"
	"mzqos/internal/experiments"
	"mzqos/internal/history"
	"mzqos/internal/journal"
	"mzqos/internal/model"
	"mzqos/internal/server"
	"mzqos/internal/sim"
	"mzqos/internal/slo"
	"mzqos/internal/telemetry"
	"mzqos/internal/trace"
	"mzqos/internal/workload"
)

// PaperGuarantee is the paper's headline per-stream guarantee: at most 1%
// chance of 12 or more glitches across M=1200 rounds (a two-hour movie).
var PaperGuarantee = model.Guarantee{Rounds: 1200, Glitches: 12, Threshold: 0.01}

// Grid returns the admission guarantee grid derived from EXPERIMENTS.md:
// per-round lateness thresholds spanning the paper's δ range plus
// per-stream guarantees at M=1200 with the tolerated glitch counts and ε
// values its Table 2 discussion sweeps.
func Grid() []model.Guarantee {
	return []model.Guarantee{
		{Threshold: 1e-4},
		{Threshold: 1e-3},
		{Threshold: 0.01},
		{Threshold: 0.02},
		{Threshold: 0.05},
		{Threshold: 0.1},
		{Rounds: 1200, Glitches: 6, Threshold: 1e-3},
		{Rounds: 1200, Glitches: 6, Threshold: 0.01},
		{Rounds: 1200, Glitches: 6, Threshold: 0.05},
		{Rounds: 1200, Glitches: 12, Threshold: 1e-4},
		{Rounds: 1200, Glitches: 12, Threshold: 1e-3},
		{Rounds: 1200, Glitches: 12, Threshold: 0.01},
		{Rounds: 1200, Glitches: 12, Threshold: 0.05},
		{Rounds: 1200, Glitches: 24, Threshold: 1e-3},
		{Rounds: 1200, Glitches: 24, Threshold: 0.01},
		{Rounds: 1200, Glitches: 24, Threshold: 0.1},
	}
}

// NewPaperModel builds the §3.2/§4 reference configuration (Quantum
// Viking 2.1, Gamma(200 KB, 100 KB) sizes, 1 s rounds).
func NewPaperModel() (*model.Model, error) {
	return model.New(model.Config{
		Disk:        disk.QuantumViking21(),
		Sizes:       workload.PaperSizes(),
		RoundLength: 1,
	})
}

func mustPaperModel(b *testing.B) *model.Model {
	b.Helper()
	m, err := NewPaperModel()
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// Case is one named benchmark runnable both under `go test -bench` (via
// b.Run) and programmatically through testing.Benchmark (cmd/mzbench).
type Case struct {
	// Name identifies the op in BENCH_admission.json; the convention is
	// operation/workload/variant.
	Name string
	// Bench is a standard benchmark body.
	Bench func(b *testing.B)
}

// Suite returns the admission benchmark suite. Variants: "seed-cold" is
// the retained pre-optimization implementation on a fresh model (what a
// config-change re-plan cost before this work), "fast-cold" is the
// optimized path on a fresh model, and "fast-warm" is the optimized path
// on a shared long-lived model — the production admission-decision case
// the paper's §5 precomputed tables exist for.
func Suite() []Case {
	grid := Grid()
	return []Case{
		{Name: "ChernoffSolve/n26/cold", Bench: func(b *testing.B) {
			m := mustPaperModel(b)
			tr, err := m.RoundTransform(26)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := chernoff.Bound(tr, 1); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "ChernoffSolve/n26/warm", Bench: func(b *testing.B) {
			m := mustPaperModel(b)
			tr, err := m.RoundTransform(26)
			if err != nil {
				b.Fatal(err)
			}
			seed, err := chernoff.Bound(tr, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := chernoff.BoundWarm(tr, 1, seed.Theta); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "LateBound/n26/chain-read", Bench: func(b *testing.B) {
			m := mustPaperModel(b)
			if _, err := m.LateBound(26); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.LateBound(26); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "GlitchBound/n28/prefix-read", Bench: func(b *testing.B) {
			m := mustPaperModel(b)
			if _, err := m.GlitchBound(28); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.GlitchBound(28); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "NMaxError/paperM/seed-cold", Bench: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := mustPaperModel(b)
				if _, err := m.SeedNMaxFor(PaperGuarantee); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "NMaxError/paperM/fast-cold", Bench: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := mustPaperModel(b)
				if _, err := m.NMaxFor(PaperGuarantee); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "NMaxError/paperM/fast-warm", Bench: func(b *testing.B) {
			m := mustPaperModel(b)
			if _, err := m.NMaxFor(PaperGuarantee); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.NMaxFor(PaperGuarantee); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "NMaxError/paperM/fast-warm-parallel", Bench: func(b *testing.B) {
			// The warm path reads the copy-on-write bound chain without
			// locks, so concurrent admission decisions should scale with
			// GOMAXPROCS rather than serialize.
			m := mustPaperModel(b)
			if _, err := m.NMaxFor(PaperGuarantee); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := m.NMaxFor(PaperGuarantee); err != nil {
						b.Fatal(err)
					}
				}
			})
		}},
		{Name: "ClusterAdmit/16shards/warm", Bench: func(b *testing.B) {
			benchClusterAdmit(b, cluster.RouteRoundRobin, false)
		}},
		{Name: "ClusterAdmit/16shards/least-loaded", Bench: func(b *testing.B) {
			benchClusterAdmit(b, cluster.RouteLeastLoaded, false)
		}},
		{Name: "ClusterAdmit/16shards/affinity", Bench: func(b *testing.B) {
			benchClusterAdmit(b, cluster.RouteAffinity, false)
		}},
		{Name: "ClusterAdmit/16shards/parallel", Bench: func(b *testing.B) {
			benchClusterAdmit(b, cluster.RouteRoundRobin, true)
		}},
		{Name: "ClusterMigrate/2shards/failover", Bench: benchClusterMigrate},
		{Name: "BuildTable/grid/seed-cold", Bench: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := mustPaperModel(b)
				if _, err := model.SeedBuildTable(m, grid); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "BuildTable/grid/fast-cold", Bench: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := mustPaperModel(b)
				if _, err := model.BuildTable(m, grid); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "BuildTable/grid/fast-warm", Bench: func(b *testing.B) {
			m := mustPaperModel(b)
			if _, err := model.BuildTable(m, grid); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := model.BuildTable(m, grid); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "GSSSweep/7groups/fast-cold", Bench: func(b *testing.B) {
			groups := []int{1, 2, 3, 4, 6, 8, 12}
			for i := 0; i < b.N; i++ {
				m := mustPaperModel(b)
				if _, err := m.GSSSweep(groups, 0.01); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "SLOObserve/4disks/steady", Bench: benchSLOObserve},
		{Name: "SLOEvaluate/4disks/steady", Bench: benchSLOEvaluate},
		{Name: "JournalAppend/ring/steady", Bench: benchJournalAppend},
		{Name: "HistorySample/32series/steady", Bench: benchHistorySample},
		{Name: "ServerStep/paperLoad/trace-off", Bench: func(b *testing.B) {
			benchServerStep(b, 1, true)
		}},
		{Name: "ServerStep/paperLoad/trace-on", Bench: func(b *testing.B) {
			benchServerStep(b, 1, false)
		}},
		{Name: "ServerStep/16disks/paperLoad/trace-off", Bench: func(b *testing.B) {
			benchServerStep(b, 16, true)
		}},
		{Name: "Experiment/e2-multizone", Bench: func(b *testing.B) {
			benchExperiment(b, "e2")
		}},
		{Name: "Experiment/e3-glitch", Bench: func(b *testing.B) {
			benchExperiment(b, "e3")
		}},
	}
}

// benchClusterAdmit measures the steady-state cluster-admission hot path
// over a 16-shard simulated fleet: one ticket reservation plus its
// release per op, so the fleet never fills and every op exercises the
// lock-free view-consult + CAS fast path. With parallel set the loop runs
// under b.RunParallel — admission contention across GOMAXPROCS admitters
// is the case cluster serving exists for.
func benchClusterAdmit(b *testing.B, route string, parallel bool) {
	b.Helper()
	engines := make([]engine.Engine, 16)
	for i := range engines {
		e, err := sim.NewEngine(sim.EngineConfig{
			Disk:         disk.QuantumViking21(),
			NumDisks:     4,
			Sizes:        workload.PaperSizes(),
			RoundLength:  1,
			PerDiskLimit: 64,
			Seed:         uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		engines[i] = e
	}
	// Migrate is enabled so the measurement pins the acceptance criterion
	// that migration support adds nothing to the admission fast path: all
	// migration work happens inside Step, never under Admit/Release.
	c, err := cluster.New(cluster.Config{Engines: engines, Route: route, Migrate: true})
	if err != nil {
		b.Fatal(err)
	}
	// One warm lap primes the view and the routing cursor.
	t, err := c.Admit("vod")
	if err != nil {
		b.Fatal(err)
	}
	c.Release(&t)
	b.ReportAllocs()
	b.ResetTimer()
	if parallel {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				t, err := c.Admit("vod")
				if err != nil {
					b.Fatal(err)
				}
				c.Release(&t)
			}
		})
		return
	}
	for i := 0; i < b.N; i++ {
		t, err := c.Admit("vod")
		if err != nil {
			b.Fatal(err)
		}
		c.Release(&t)
	}
}

// benchClusterMigrate measures a full failover round: one shard of a
// 2-shard fleet fails, Step drains its whole active set (32 streams) and
// re-admits every stream on the sibling, and Recalibrate restores the
// failed shard for the next lap. Ops ping-pong the fleet between the two
// shards so each iteration migrates the same population. This path runs
// inside Step and is allowed to allocate — the companion criterion
// (ClusterAdmit/16shards/warm staying 0-alloc with Migrate enabled) is
// what keeps migration off the admission hot path.
func benchClusterMigrate(b *testing.B) {
	const streams = 32
	engines := make([]engine.Engine, 2)
	sims := make([]*sim.Engine, 2)
	for i := range engines {
		e, err := sim.NewEngine(sim.EngineConfig{
			Disk:         disk.QuantumViking21(),
			NumDisks:     2,
			Sizes:        workload.PaperSizes(),
			RoundLength:  1,
			PerDiskLimit: 64,
			Seed:         uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		engines[i], sims[i] = e, e
	}
	c, err := cluster.New(cluster.Config{
		Engines:       engines,
		Route:         cluster.RouteLeastLoaded,
		Replicas:      2,
		Migrate:       true,
		MigrateBudget: streams,
	})
	if err != nil {
		b.Fatal(err)
	}
	// One object long enough that no stream completes inside the horizon.
	sizes := make([]float64, 1<<20)
	for i := range sizes {
		sizes[i] = 1
	}
	if err := c.AddObject("vod", sizes); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < streams; i++ {
		if _, _, err := c.Open("vod"); err != nil {
			b.Fatal(err)
		}
	}
	// Warm lap parks the whole population on shard 1.
	sims[0].SetFailed(true)
	c.Step()
	if _, err := c.Recalibrate(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sims[1-i%2].SetFailed(true)
		c.Step()
		if _, err := c.Recalibrate(0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if ms := c.MigrationStats(); ms.Failed > 0 || ms.Pending > 0 {
		b.Fatalf("migration stats %+v: failover laps must place every stream", ms)
	}
}

// newWarmAuditor builds a 4-disk SLO auditor with both windows fully
// populated, so the timed region measures the steady state: ring slots
// recycling in place with no growth anywhere.
func newWarmAuditor(b *testing.B) *slo.Auditor {
	b.Helper()
	aud, err := slo.New(slo.Config{}, 4)
	if err != nil {
		b.Fatal(err)
	}
	aud.SetBudgets(1e-3, 1e-4)
	for r := 0; r < slo.DefaultSlowWindow+8; r++ {
		for d := 0; d < 4; d++ {
			aud.ObserveDisk(d, true, false, 26, 0)
		}
		aud.EndRound()
	}
	return aud
}

// benchSLOObserve measures the per-sweep observe path of the SLO audit —
// the call Step makes once per loaded disk per round. The observability
// PR's budget: under 200 ns/op and zero allocations, gated by
// mzbench -quick.
func benchSLOObserve(b *testing.B) {
	aud := newWarmAuditor(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aud.ObserveDisk(i&3, true, false, 26, 0)
	}
}

// benchSLOEvaluate measures one full audited round: four disk
// observations plus the end-of-round evaluation (window rotation, burn
// rates, alert state machines for both targets). Budget: zero
// allocations in steady state.
func benchSLOEvaluate(b *testing.B) {
	aud := newWarmAuditor(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := 0; d < 4; d++ {
			aud.ObserveDisk(d, true, false, 26, 0)
		}
		aud.EndRound()
	}
}

// benchJournalAppend measures one event-journal ring append at full
// wrap-around steady state — the call every emitter on the round path
// makes (admit, glitch, evict, SLO transitions). Budget: under 100 ns/op
// with zero allocations, gated by mzbench -quick; anything more would make
// per-glitch journalling a measurable tax on Step.
func benchJournalAppend(b *testing.B) {
	// A registry keeps the measurement honest: production appends also pay
	// the per-kind counter and head-seq gauge updates.
	j := journal.New(journal.Config{Capacity: 4096, Registry: telemetry.NewRegistry()})
	e := journal.Event{Kind: journal.KindGlitch, Disk: -1, From: -1, To: -1, Value: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Round = i
		j.Append(e)
	}
}

// benchHistorySample measures one per-round sample of the embedded
// metrics history at a registry shaped like a loaded single-server run
// (32 scalar series plus two per-disk round-time histograms), warmed past
// the fine ring's wrap-around so the timed region is the steady state:
// ring slots and coarse blocks recycling in place with no growth
// anywhere. The embedded-history PR's budget: under 500 ns/op with zero
// allocations, gated by mzbench -quick — Sample runs once per round on
// the Step path, so anything more would tax the guarantee loop itself.
func benchHistorySample(b *testing.B) {
	reg := telemetry.NewRegistry()
	for i := 0; i < 16; i++ {
		reg.Counter(fmt.Sprintf("bench_counter_%d_total", i), "bench counter").Add(int64(i))
	}
	for i := 0; i < 16; i++ {
		reg.Gauge(fmt.Sprintf("bench_gauge_%d", i), "bench gauge").Set(float64(i))
	}
	bounds, err := telemetry.RoundTimeBuckets(1)
	if err != nil {
		b.Fatal(err)
	}
	for d := 0; d < 2; d++ {
		h, err := reg.Histogram("bench_round_time_seconds", "bench histogram",
			bounds, telemetry.L("disk", fmt.Sprint(d)))
		if err != nil {
			b.Fatal(err)
		}
		h.Observe(0.8)
	}
	st := history.New(history.Config{Registry: reg, Rounds: 256})
	// Warm past the fine ring's wrap and through several coarse blocks.
	warm := 256 + 2*history.DefaultCoarseBlock
	for r := 0; r < warm; r++ {
		st.Sample(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Sample(warm + i)
	}
}

// benchServerStep measures one round of the server's Step hot path at the
// paper's full admitted load (N_max streams on each of `disks` Quantum
// Viking 2.1 disks, 1 s rounds), with the flight recorder either off or
// on. The 1-disk trace-on/trace-off ratio is the recorded tracing
// overhead, claimed to stay under 5%; the 16-disk round (416 streams) is
// where gathering the due requests costs the most.
func benchServerStep(b *testing.B, disks int, traceOff bool) {
	b.Helper()
	s, err := server.New(server.Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    disks,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        7,
		Trace:       trace.Config{Disabled: traceOff},
	})
	if err != nil {
		b.Fatal(err)
	}
	const objRounds = 4096
	capacity := s.Capacity()
	for i := 0; i < capacity; i++ {
		if err := s.AddSyntheticObject(fmt.Sprintf("v%d", i), objRounds); err != nil {
			b.Fatal(err)
		}
	}
	refill := func() {
		for s.Active() < capacity {
			if _, _, err := s.Open(fmt.Sprintf("v%d", s.Active())); err != nil {
				b.Fatal(err)
			}
		}
	}
	refill()
	// Warm one full lap of the flight-recorder ring (plus a little) so the
	// timed region measures the steady state: buffers shuttling between
	// the scratch span and ring slots without allocating.
	warm := trace.DefaultSpans + 8
	for i := 0; i < warm; i++ {
		if s.Active() < capacity {
			refill()
		}
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Active() < capacity {
			refill()
		}
		s.Step()
	}
}

func benchExperiment(b *testing.B, id string) {
	opts := experiments.QuickOptions()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Run(id, opts)
		if err != nil {
			b.Fatal(err)
		}
		tbl.Render(io.Discard)
	}
}

package main

import (
	"fmt"
	"time"

	"mzqos/internal/model"
	"mzqos/internal/slo"
)

// perLayer lists every per-layer metric the traced run prints, in order.
// A workload that does not exercise a layer reports it as 0 with the base
// "not exercised".
var perLayer = []struct{ name, unit string }{
	{"server.step_bare_us", "us"},
	{"server.allocs_per_step_bare", "count"},
	{"server.step_all_us", "us"},
	{"server.open_ns", "ns"},
	{"trace.step_marginal_us", "us"},
	{"trace.spans", "count"},
	{"trace.freezes", "count"},
	{"slo.step_marginal_us", "us"},
	{"slo.transitions", "count"},
	{"journal.step_marginal_us", "us"},
	{"journal.events", "count"},
	{"journal.retained_ratio", "ratio"},
	{"history.step_marginal_us", "us"},
	{"history.query_us", "us"},
	{"history.series", "count"},
	{"telemetry.expose_us", "us"},
	{"telemetry.expose_ns_per_series", "ns"},
	{"telemetry.series", "count"},
	{"fault.faulty_disk_rounds", "count"},
	{"fault.retries", "count"},
	{"fault.lost", "count"},
	{"fault.evicted", "count"},
	{"cluster.step_self_us", "us"},
	{"cluster.open_self_ns", "ns"},
	{"cluster.engine_rejects", "count"},
	{"cluster.migrated", "count"},
	{"cluster.migration_success_ratio", "ratio"},
	{"model.new_ms", "ms"},
	{"model.cold_solves", "count"},
	{"model.chain_hit_ratio", "ratio"},
	{"model.recalibrate_ms", "ms"},
	{"model.late_bound_us", "us"},
	{"sim.estimate_ms_per_n", "ms"},
	{"sim.trials_per_s", "1/s"},
	{"round.p99_us", "us"},
	{"admit.p99_ns", "ns"},
	{"tracing.overhead_ratio", "ratio"},
}

// layerValues collects the per-layer numbers of one traced run.
type layerValues struct {
	v    map[string]float64
	base map[string]string
}

func newLayerValues() *layerValues {
	return &layerValues{v: map[string]float64{}, base: map[string]string{}}
}

func (l *layerValues) set(name string, v float64, base string) {
	l.v[name] = v
	l.base[name] = base
}

// emit adds every per-layer metric to the result.
func (l *layerValues) emit(res *result) {
	for _, m := range perLayer {
		base, ok := l.base[m.name]
		if !ok {
			base = "not exercised by this workload"
		}
		res.add(m.name, m.unit, l.v[m.name], base)
	}
}

// medianUS returns the median of nanosecond durations in microseconds.
func medianUS(ns []int64) float64 { return quantileNS(ns, 0.5) / 1e3 }

func countBase(ns []int64) string { return fmt.Sprintf("median of n=%d", len(ns)) }

// modelLayer times cold model.New calls for the paper disk and reports
// the solver counters accumulated since tel0.
func modelLayer(l *layerValues, tel0 model.TelemetrySnapshot, tr *tracer) error {
	const builds = 25
	var ms []float64
	for i := 0; i < builds; i++ {
		t0 := time.Now()
		_, err := model.New(paperModelConfig())
		d := time.Since(t0)
		tr.record(spanModelNew, -1, t0, d)
		if err != nil {
			return fmt.Errorf("model.New: %w", err)
		}
		ms = append(ms, float64(d)/1e6)
	}
	l.set("model.new_ms", median(ms), fmt.Sprintf("median of %d cold builds", builds))
	solverCounters(l, tel0)
	return nil
}

func solverCounters(l *layerValues, tel0 model.TelemetrySnapshot) {
	t := model.Telemetry()
	hits := t.ChainHits - tel0.ChainHits
	ext := t.ChainExtensions - tel0.ChainExtensions
	l.set("model.cold_solves", float64(t.ColdSolves-tel0.ColdSolves), "whole run")
	l.set("model.chain_hit_ratio", ratio(float64(hits), float64(hits+ext)),
		fmt.Sprintf("%d/%d bound reads", hits, hits+ext))
}

// scrapeLayers reports the exposition and query spans and the registry
// size.
func scrapeLayers(l *layerValues, tr *tracer, series, histSeries int) {
	expose := tr.durations(spanExpose)
	query := tr.durations(spanQuery)
	e := medianUS(expose)
	l.set("telemetry.expose_us", e, countBase(expose))
	l.set("telemetry.expose_ns_per_series", ratio(e*1e3, float64(series)), fmt.Sprintf("%d series", series))
	l.set("telemetry.series", float64(series), "registry")
	l.set("history.query_us", medianUS(query), countBase(query))
	l.set("history.series", float64(histSeries), "history store")
}

func sloTransitions(st slo.Status) int64 {
	var n int64
	for _, t := range st.Targets {
		n += t.FiredTotal + t.ResolvedTotal
	}
	return n
}

// rung is one server of the steady ladder.
type rung struct {
	name        string
	l           layers
	rig         *steadyRig
	step        *samples
	allocs      uint64
	allocRounds int
}

// ladderBlock is the rounds one rung runs before the next takes over.
const ladderBlock = 50

// steadyLadder runs identically seeded servers that differ only in which
// observability layer is on — none, one at a time, all — interleaved in
// blocks so machine drift hits every rung alike. Every rung must produce
// the same digest: observability must not perturb service.
func steadyLadder(seed uint64, seconds float64) ([]*rung, error) {
	rungs := []*rung{
		{name: "bare"},
		{name: "trace", l: layers{trace: true}},
		{name: "slo", l: layers{slo: true}},
		{name: "journal", l: layers{journal: true}},
		{name: "history", l: layers{history: true}},
		{name: "all", l: allLayers},
	}
	capacity := int(seconds*steadyRoundsPerSecond) + 1000
	for _, r := range rungs {
		g, err := newSteadyRig(seed, r.l, nil)
		if err != nil {
			return nil, err
		}
		for i := 0; i < steadyWarm; i++ {
			if _, err := g.round(nil, nil, nil, modeWarm); err != nil {
				return nil, err
			}
		}
		r.rig, r.step = g, newSamples(capacity)
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for b := 0; b == 0 || time.Now().Before(deadline); b++ {
		for k := range rungs {
			r := rungs[(b+k)%len(rungs)]
			m0 := mallocs()
			for i := 0; i < ladderBlock; i++ {
				if _, err := r.rig.round(nil, r.step, nil, modeWarm); err != nil {
					return nil, err
				}
			}
			r.allocs += mallocs() - m0
			r.allocRounds += ladderBlock
		}
	}
	names := make([]string, len(rungs))
	digests := make([]uint64, len(rungs))
	for i, r := range rungs {
		names[i], digests[i] = r.name, r.rig.dig.h
	}
	if err := checkDigests(names, digests); err != nil {
		return nil, err
	}
	return rungs, nil
}

// tails reports the untraced phase's p99 round and admission times,
// demoted from the end-to-end set because collections and the host's
// other load move them by more than any usable bound between runs.
// perRound divides a round sample into rounds.
func tails(l *layerValues, step, admit *samples, perRound float64) error {
	p99, base, err := step.tailQuantile("round time")
	if err != nil {
		return err
	}
	l.set("round.p99_us", p99/perRound/1e3, "untraced phase, "+base)
	if p99, base, err = admit.tailQuantile("admission time"); err != nil {
		return err
	}
	l.set("admit.p99_ns", p99, "untraced phase, "+base)
	return nil
}

// overhead compares the traced phase's median round with the untraced
// phase's and checks that tracing left the simulated outcome unchanged.
func overhead(l *layerValues, res *result, plainP50, tracedP50 float64, plainDigest, tracedDigest uint64) error {
	if err := checkDigests([]string{"untraced", "traced"}, []uint64{plainDigest, tracedDigest}); err != nil {
		return err
	}
	l.set("tracing.overhead_ratio", ratio(tracedP50, plainP50),
		fmt.Sprintf("traced/untraced median round %.3f/%.3f us", tracedP50/1e3, plainP50/1e3))
	res.digest = tracedDigest
	return nil
}

// runSteadyTraced splits --seconds in thirds: the untraced phase, the
// traced phase and the ladder.
func runSteadyTraced(opts options) (*result, error) {
	third := float64(opts.seconds) / 3
	tel0 := model.Telemetry()
	tr := newTracer(time.Now(), int(third*steadyRoundsPerSecond*6)+100000)
	plain, err := steadyPhase(opts.seed, third, nil)
	if err != nil {
		return nil, err
	}
	traced, err := steadyPhase(opts.seed, third, tr)
	if err != nil {
		return nil, err
	}
	rungs, err := steadyLadder(opts.seed, third)
	if err != nil {
		return nil, err
	}
	res, l := &result{}, newLayerValues()
	g := traced.rig
	if err := overhead(l, res, plain.step.quantile(0.5), traced.step.quantile(0.5), plain.rig.dig.h, g.dig.h); err != nil {
		return nil, err
	}
	if err := tails(l, plain.step, plain.admit, 1); err != nil {
		return nil, err
	}
	res.horizon = fmt.Sprintf("%d warm + %d measured rounds per phase; ladder digest %016x over %d rounds",
		steadyWarm, g.horizonRounds, rungs[0].rig.dig.h, rungs[0].rig.rounds)
	res.attempted, res.refused, res.glitched = g.opens+g.fragments, g.refused, g.glitches

	bare := rungs[0].step.quantile(0.5)
	l.set("server.step_bare_us", bare/1e3, "ladder "+rungs[0].step.base())
	l.set("server.allocs_per_step_bare", float64(rungs[0].allocs)/float64(rungs[0].allocRounds),
		fmt.Sprintf("%d rounds", rungs[0].allocRounds))
	for _, r := range rungs[1:] {
		p50 := r.step.quantile(0.5)
		res.note("ladder %-8s round p50 %8.2f us (%s) marginal %+7.2f us", r.name, p50/1e3, r.step.base(), (p50-bare)/1e3)
		if r.name == "all" {
			l.set("server.step_all_us", p50/1e3, "ladder "+r.step.base())
			continue
		}
		l.set(r.name+".step_marginal_us", (p50-bare)/1e3, "ladder p50 minus bare p50")
	}
	opens := tr.durations(spanOpen)
	l.set("server.open_ns", quantileNS(opens, 0.5), countBase(opens))
	l.set("trace.spans", float64(traced.traceStats.Recorded), "measured phase")
	l.set("trace.freezes", float64(traced.traceStats.Triggers), "measured phase")
	l.set("slo.transitions", float64(sloTransitions(g.srv.SLOStatus())), "whole run")
	js := g.jnl.Stats()
	l.set("journal.events", float64(traced.journalEvents), "measured phase")
	l.set("journal.retained_ratio", ratio(float64(js.Retained), float64(js.HeadSeq)),
		fmt.Sprintf("%d/%d events", js.Retained, js.HeadSeq))
	scrapeLayers(l, tr, g.reg.NumSeries(), len(g.hist.SeriesIDs()))
	faultLayers(l, g.faultyDiskRounds, g.retries, g.lost, g.evicted)
	if err := modelLayer(l, tel0, tr); err != nil {
		return nil, err
	}
	l.emit(res)
	res.notes = append(res.notes, tr.summary("")...)
	return res, nil
}

func faultLayers(l *layerValues, faulty, retries, lost, evicted int64) {
	l.set("fault.faulty_disk_rounds", float64(faulty), "measured horizon")
	l.set("fault.retries", float64(retries), "measured horizon")
	l.set("fault.lost", float64(lost), "measured horizon")
	l.set("fault.evicted", float64(evicted), "measured horizon")
}

func runChurnTraced(opts options) (*result, error) {
	half := float64(opts.seconds) / 2
	tel0 := model.Telemetry()
	tr := newTracer(time.Now(), int(half*churnRoundsPerSecond*20)+100000)
	plain, err := churnPhase(opts.seed, half, nil)
	if err != nil {
		return nil, err
	}
	traced, err := churnPhase(opts.seed, half, tr)
	if err != nil {
		return nil, err
	}
	res, l := &result{}, newLayerValues()
	g := traced.rig
	if err := overhead(l, res, plain.times.step.quantile(0.5), traced.times.step.quantile(0.5), plain.rig.dig.h, g.dig.h); err != nil {
		return nil, err
	}
	if err := tails(l, plain.times.step, plain.times.admit, 1); err != nil {
		return nil, err
	}
	res.horizon = fmt.Sprintf("%d warm + %d measured rounds per phase", churnWarm, g.horizonRounds)
	res.attempted, res.refused, res.glitched = g.opens+g.fragments, g.refused, g.glitches

	children := make([]*tracer, len(g.traced))
	var rejects int64
	var shardOpens []int64
	for i, te := range g.traced {
		children[i] = te.tr
		rejects += te.rejects
		shardOpens = append(shardOpens, te.tr.durations(spanShardOpen)...)
	}
	l.set("server.open_ns", quantileNS(shardOpens, 0.5), "engine.Open "+countBase(shardOpens))
	stepSelf := selfTimes(tr, spanStep, children)
	openSelf := selfTimes(tr, spanOpen, children)
	l.set("cluster.step_self_us", medianUS(stepSelf), countBase(stepSelf))
	l.set("cluster.open_self_ns", quantileNS(openSelf, 0.5), countBase(openSelf))
	l.set("cluster.engine_rejects", float64(rejects), "whole traced phase")
	ms := g.coord.MigrationStats()
	l.set("cluster.migrated", float64(ms.Succeeded), "whole traced phase")
	l.set("cluster.migration_success_ratio", ratio(float64(ms.Succeeded), float64(ms.Attempted)),
		fmt.Sprintf("%d/%d migrations", ms.Succeeded, ms.Attempted))
	var transitions int64
	for i := range g.engines {
		transitions += sloTransitions(g.engineServer(i).SLOStatus())
	}
	l.set("slo.transitions", float64(transitions), "whole run, all shards")
	js := g.jnl.Stats()
	l.set("journal.events", float64(traced.journalEvents), "measured phase")
	l.set("journal.retained_ratio", ratio(float64(js.Retained), float64(js.HeadSeq)),
		fmt.Sprintf("%d/%d events", js.Retained, js.HeadSeq))
	scrapeLayers(l, tr, g.reg.NumSeries(), len(g.hist.SeriesIDs()))
	faultLayers(l, g.faultyDiskRounds, g.retries, g.lost, g.evict)
	recal := tr.durations(spanRecalibrate)
	l.set("model.recalibrate_ms", quantileNS(recal, 0.5)/1e6, countBase(recal))
	if err := modelLayer(l, tel0, tr); err != nil {
		return nil, err
	}
	l.emit(res)
	res.notes = append(res.notes, tr.summary("")...)
	for i, c := range children {
		res.notes = append(res.notes, c.summary(fmt.Sprintf("shard%d/", i))...)
	}
	return res, nil
}

func runMonteCarloTraced(opts options) (*result, error) {
	half := float64(opts.seconds) / 2
	tel0 := model.Telemetry()
	tr := newTracer(time.Now(), int(half*mcBatchesPerSecond*20)+100000)
	plain, err := mcPhase(opts.seed, half, nil)
	if err != nil {
		return nil, err
	}
	traced, err := mcPhase(opts.seed, half, tr)
	if err != nil {
		return nil, err
	}
	res, l := &result{}, newLayerValues()
	if err := overhead(l, res, plain.batch.quantile(0.5), traced.batch.quantile(0.5), plain.dig.h, traced.dig.h); err != nil {
		return nil, err
	}
	if err := tails(l, plain.batch, plain.admit, float64((mcHi-mcLo+1)*mcTrials)); err != nil {
		return nil, err
	}
	res.horizon = fmt.Sprintf("%d sweep batches × %d trials per N per phase", traced.horizon, mcTrials)
	res.attempted = traced.queries
	for i := range traced.trials {
		res.attempted += traced.trials[i]
		res.glitched += traced.hits[i]
	}
	res.refused = traced.refusedQ

	news := tr.durations(spanModelNew)
	l.set("model.new_ms", quantileNS(news, 0.5)/1e6, countBase(news))
	solverCounters(l, tel0)
	cold := tr.durations(spanLateBound)
	l.set("model.late_bound_us", medianUS(cold), "cold chain extension "+countBase(cold))
	nN := float64(mcHi - mcLo + 1)
	l.set("sim.estimate_ms_per_n", traced.batch.quantile(0.5)/nN/1e6, "median sweep batch / N values")
	l.set("sim.trials_per_s", float64(traced.simRounds)/traced.sweepTime.Seconds(),
		fmt.Sprintf("%d trials in %.3fs", traced.simRounds, traced.sweepTime.Seconds()))
	reg := traced.scrapeSeries
	scrapeLayers(l, tr, reg, reg)
	l.emit(res)
	res.notes = append(res.notes, tr.summary("")...)
	return res, nil
}

package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"mzqos/internal/disk"
	"mzqos/internal/engine"
	"mzqos/internal/history"
	"mzqos/internal/journal"
	"mzqos/internal/model"
	"mzqos/internal/server"
	"mzqos/internal/slo"
	"mzqos/internal/telemetry"
	"mzqos/internal/trace"
	"mzqos/internal/workload"
)

// The steady workload: one 16-disk server at its admitted load.
const (
	steadyDisks = 16
	// steadyClips is large enough that the glitch rate does not hinge on
	// a few outsized fragments of one seed's catalog: every stream
	// replays catalog fragments.
	steadyClips     = 512
	steadyMinRounds = 200
	steadyMaxRounds = 400
	// steadyWarm rounds run before measuring, enough for every ring to
	// wrap: the history fine ring (4096 rounds), the journal (8192
	// events), the ledger (4096 retirements), the flight recorder (1024
	// spans) and the SLO slow window (512 rounds).
	steadyWarm = 6400
	// steadyRoundsPerSecond sets the deterministic horizon per measured
	// second; rounds past the horizon until the deadline add host-time
	// samples only.
	steadyRoundsPerSecond = 4000
	steadySetups          = 41
	// steadyScrapes are timed in two groups of steadyScrapes/2, one
	// between warm-up and the measured phase and one after it, so that
	// one stretch of the host's other load does not set the median.
	steadyScrapes = 6000
)

// layers selects the observability layers a steady server runs.
type layers struct{ trace, slo, journal, history bool }

var allLayers = layers{trace: true, slo: true, journal: true, history: true}

// steadyRig is one steady server with its inputs and running tallies.
type steadyRig struct {
	srv      *server.Server
	reg      *telemetry.Registry
	jnl      *journal.Journal
	hist     *history.Store
	names    []string
	refill   *arrivals
	capacity int
	nmax     int
	dig      digest
	rounds   int

	// Tallies over the deterministic rounds.
	opens, refused               int64
	fragments, glitches          int64
	loadedDiskRounds, lateRounds int64
	faultyDiskRounds, retries    int64
	lost, evicted                int64
	streamsPerDisk               float64
	horizonRounds                int64
}

func paperServerConfig(seed uint64, disks int, reg *telemetry.Registry) server.Config {
	return server.Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    disks,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        subSeed(seed, tagServer),
		Registry:    reg,
	}
}

// newSteadyRig builds the server with the given layers and loads the
// catalog. Rigs built from one seed are identical in everything the
// layers do not touch.
func newSteadyRig(seed uint64, l layers, tr *tracer) (*steadyRig, error) {
	reg := telemetry.NewRegistry()
	cfg := paperServerConfig(seed, steadyDisks, reg)
	cfg.Trace = trace.Config{Disabled: !l.trace}
	cfg.SLO = slo.Config{Disabled: !l.slo}
	g := &steadyRig{reg: reg, dig: newDigest()}
	if l.journal {
		g.jnl = journal.New(journal.Config{Registry: reg})
		cfg.Journal = g.jnl
		cfg.Ledger = journal.NewLedger(journal.LedgerConfig{})
	}
	if l.history {
		g.hist = history.New(history.Config{Registry: reg})
		cfg.History = g.hist
	}
	t0 := time.Now()
	srv, err := server.New(cfg)
	if tr != nil {
		tr.record(spanNew, -1, t0, time.Since(t0))
	}
	if err != nil {
		return nil, fmt.Errorf("server.New: %w", err)
	}
	g.srv = srv
	for _, c := range steadyCatalog(seed, steadyClips, steadyMinRounds, steadyMaxRounds) {
		t0 := time.Now()
		err := srv.AddSyntheticObject(c.name, c.rounds)
		if tr != nil {
			tr.record(spanAddObject, -1, t0, time.Since(t0))
		}
		if err != nil {
			return nil, fmt.Errorf("AddSyntheticObject %s: %w", c.name, err)
		}
		g.names = append(g.names, c.name)
	}
	uniform, err := workload.NewZipf(steadyClips, 0)
	if err != nil {
		return nil, err
	}
	g.refill = newArrivals(seed, tagArrivals, 0, uniform)
	g.capacity = srv.Capacity()
	g.nmax = srv.PerDiskLimit()
	return g, nil
}

// open makes one timed Open call and reports whether admission refused
// it; tally counts the outcome into the horizon's totals.
func (g *steadyRig) open(admit *samples, tr *tracer, tally bool) (refused bool, err error) {
	name := g.names[g.refill.object()]
	t0 := time.Now()
	_, _, err = g.srv.Open(name)
	d := time.Since(t0)
	if admit != nil {
		admit.add(d)
	}
	if tr != nil {
		tr.record(spanOpen, -1, t0, d)
	}
	refused = errors.Is(err, engine.ErrRejected)
	if err != nil && !refused {
		return false, fmt.Errorf("Open %s: %w", name, err)
	}
	if tally {
		g.opens++
		if refused {
			g.refused++
		}
	}
	return refused, nil
}

// roundMode says what one round contributes beyond host time: warm
// rounds feed only the digest, horizon rounds the digest, the tallies and
// the checks, and rounds past the horizon nothing.
type roundMode uint8

const (
	modeWarm roundMode = iota
	modeHorizon
	modeExtra
)

// round runs one round: the refill opens streams until admission refuses
// one, then one timed Step. The refill is a closed population of one
// viewer more than the server holds: a viewer whose clip ended starts
// another, and the one left over asks every round and is refused, so the
// server, not the benchmark, says when it is full. It returns the
// fragments the round served.
func (g *steadyRig) round(admit, step *samples, tr *tracer, mode roundMode) (int, error) {
	tally := mode == modeHorizon
	for {
		refused, err := g.open(admit, tr, tally)
		if err != nil {
			return 0, err
		}
		if refused {
			break
		}
		if err := checkCapacity(g.srv.Active(), g.capacity); err != nil {
			return 0, err
		}
	}
	active := g.srv.Active()
	t0 := time.Now()
	rep := g.srv.Step()
	d := time.Since(t0)
	if step != nil {
		step.add(d)
	}
	if tr != nil {
		tr.record(spanStep, -1, t0, d)
	}
	g.rounds++
	served, live := 0, 0
	for i := range rep.Disks {
		served += rep.Disks[i].Requests
		if !rep.Disks[i].Down {
			live++
		}
	}
	if mode == modeExtra {
		return served, nil
	}
	g.dig.round(&rep)
	if err := checkDiskLoad(&rep, g.nmax); err != nil {
		return 0, err
	}
	if !tally {
		return served, nil
	}
	for i := range rep.Disks {
		dr := &rep.Disks[i]
		if dr.Requests > 0 {
			g.loadedDiskRounds++
			if dr.Late > 0 {
				g.lateRounds++
			}
		}
		if dr.Faulty {
			g.faultyDiskRounds++
		}
		g.retries += int64(dr.Retries)
		g.lost += int64(dr.Lost)
	}
	g.evicted += int64(len(rep.Evicted))
	g.fragments += int64(served)
	g.glitches += int64(rep.Glitches)
	g.streamsPerDisk += ratio(float64(active), float64(live))
	g.horizonRounds++
	return served, nil
}

// scrape exposes the registry and runs the two history queries a
// dashboard refresh makes; with tr set, each call is a span.
func scrape(reg *telemetry.Registry, hist *history.Store, buf *bytes.Buffer, queries []history.Query, tr *tracer) error {
	buf.Reset()
	t0 := time.Now()
	err := reg.WritePrometheus(buf)
	if tr != nil {
		tr.record(spanExpose, -1, t0, time.Since(t0))
	}
	if err != nil {
		return fmt.Errorf("WritePrometheus: %w", err)
	}
	for _, q := range queries {
		t0 := time.Now()
		_, err := hist.Query(q)
		if tr != nil {
			tr.record(spanQuery, -1, t0, time.Since(t0))
		}
		if err != nil {
			return fmt.Errorf("Query %s: %w", q.Series, err)
		}
	}
	return nil
}

// steadyRun is what one measured steady phase produced.
type steadyRun struct {
	rig                    *steadyRig
	setup                  []float64
	step, admit, scrapes   *samples
	phaseRounds            int
	thru                   *rate
	allocsPerRound, heapMB float64
	traceStats             trace.Stats
	journalEvents          uint64
}

// steadyPhase sets the server up steadySetups times (the last build is
// kept), warms it until every ring has wrapped, measures a phase of the
// given length, and times scrapes before and after that phase.
func steadyPhase(seed uint64, seconds float64, tr *tracer) (*steadyRun, error) {
	out := &steadyRun{}
	for i := 0; i < steadySetups; i++ {
		runtime.GC()
		t0 := time.Now()
		g, err := newSteadyRig(seed, allLayers, tr)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
		out.rig = g
	}
	g := out.rig
	if err := checkServerGolden(g.srv); err != nil {
		return nil, err
	}
	for i := 0; i < steadyWarm; i++ {
		if _, err := g.round(nil, nil, nil, modeWarm); err != nil {
			return nil, err
		}
	}
	// Scrapes outside the measured phase: the cost of reading this
	// server's telemetry and history at full load, kept out of the round
	// loop, which runs without scrapes.
	out.scrapes = newSamples(steadyScrapes)
	var buf bytes.Buffer
	scrapes := func() error {
		queries := steadyQueries(g.rounds)
		for i := 0; i < steadyScrapes/2; i++ {
			t0 := time.Now()
			if err := scrape(g.reg, g.hist, &buf, queries, tr); err != nil {
				return err
			}
			out.scrapes.add(time.Since(t0))
		}
		return nil
	}
	if err := scrapes(); err != nil {
		return nil, err
	}
	horizon := int(seconds * steadyRoundsPerSecond)
	capacity := int(seconds*steadyRoundsPerSecond*3) + 1000
	out.step = newSamples(capacity)
	out.thru = newRate(capacity)
	out.admit = newSamples(capacity * 2)
	trace0 := g.srv.Trace().Stats()
	seq0 := g.jnl.Stats().HeadSeq
	m0 := mallocs()
	ph := newPhase(horizon, time.Duration(seconds*float64(time.Second)))
	for {
		more, inHorizon := ph.next()
		if !more {
			break
		}
		mode := modeHorizon
		if !inHorizon {
			mode = modeExtra
		}
		t0 := time.Now()
		served, err := g.round(out.admit, out.step, tr, mode)
		if err != nil {
			return nil, err
		}
		out.thru.add(int64(served), time.Since(t0))
	}
	out.phaseRounds = ph.units
	out.allocsPerRound = float64(mallocs()-m0) / float64(ph.units)
	out.heapMB = programHeapMB(out.step, out.admit, out.thru, out.scrapes)
	out.traceStats = g.srv.Trace().Stats()
	out.traceStats.Recorded -= trace0.Recorded
	out.traceStats.Triggers -= trace0.Triggers
	out.journalEvents = g.jnl.Stats().HeadSeq - seq0
	bound, err := g.srv.Model().LateBound(g.nmax)
	if err != nil {
		return nil, fmt.Errorf("LateBound: %w", err)
	}
	if err := checkLateFraction(g.lateRounds, g.loadedDiskRounds, bound); err != nil {
		return nil, err
	}
	if err := scrapes(); err != nil {
		return nil, err
	}
	return out, nil
}

func steadyQueries(round int) []history.Query {
	since := int64(round - 256)
	return []history.Query{
		{Series: "mzqos_server_streams_active", SinceRound: since},
		{Series: "mzqos_server_round_time_seconds", SinceRound: since, Step: 32, Agg: history.AggP99},
	}
}

// checkServerGolden checks the paper's golden numbers on the model the
// server admitted with.
func checkServerGolden(srv *server.Server) error {
	m := srv.Model()
	perror, err := m.NMaxError(1200, 12, 0.01)
	if err != nil {
		return fmt.Errorf("NMaxError: %w", err)
	}
	b26, err := m.LateBound(26)
	if err != nil {
		return fmt.Errorf("LateBound: %w", err)
	}
	return checkGolden(srv.PerDiskLimit(), perror, b26)
}

// endToEnd adds the end-to-end metrics of a steady phase.
func (o *steadyRun) endToEnd(res *result) {
	g := o.rig
	res.add("setup_s", "s", median(o.setup), fmt.Sprintf("median of %d builds", len(o.setup)))
	res.add("round_p50_us", "us", o.step.quantile(0.5)/1e3, o.step.base())
	fps, fpsBase := o.thru.perSecond(100)
	res.add("fragments_per_s", "1/s", fps, "fragments; "+fpsBase)
	res.add("admit_p50_ns", "ns", o.admit.quantile(0.5), o.admit.base())
	res.add("scrape_p50_us", "us", o.scrapes.quantile(0.5)/1e3, o.scrapes.base()+" outside the round loop")
	res.add("glitch_rate", "ratio", ratio(float64(g.glitches), float64(g.fragments)),
		fmt.Sprintf("%d/%d fragments", g.glitches, g.fragments))
	res.add("block_rate", "ratio", ratio(float64(g.refused), float64(g.opens)),
		fmt.Sprintf("%d/%d opens", g.refused, g.opens))
	res.add("streams_per_disk", "count", g.streamsPerDisk/float64(g.horizonRounds),
		fmt.Sprintf("mean over %d rounds", g.horizonRounds))
	res.add("allocs_per_round", "count", o.allocsPerRound, fmt.Sprintf("%d rounds", o.phaseRounds))
	res.add("heap_mb", "MB", o.heapMB, "live heap after GC")
	res.digest = g.dig.h
	res.horizon = fmt.Sprintf("%d warm + %d measured rounds", steadyWarm, g.horizonRounds)
	res.attempted = g.opens + g.fragments
	res.refused = g.refused
	res.glitched = g.glitches
}

func runSteady(opts options) (*result, error) {
	o, err := steadyPhase(opts.seed, float64(opts.seconds), nil)
	if err != nil {
		return nil, err
	}
	res := &result{}
	o.endToEnd(res)
	return res, nil
}

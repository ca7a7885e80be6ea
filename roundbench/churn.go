package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"mzqos/internal/cluster"
	"mzqos/internal/engine"
	"mzqos/internal/fault"
	"mzqos/internal/history"
	"mzqos/internal/journal"
	"mzqos/internal/server"
	"mzqos/internal/telemetry"
	"mzqos/internal/trace"
	"mzqos/internal/workload"
)

// The churn workload: a 4-shard cluster under overload, faults, scrapes
// and recalibration.
const (
	churnShards     = 4
	churnDisks      = 4
	churnClips      = 200
	churnMeanRounds = 60
	churnZipf       = 0.8
	churnReplicas   = 2
	// churnArrivals is about 1.15 × capacity / mean clip length.
	churnArrivals    = 8.0
	churnScrapeEvery = 10
	churnRecalEvery  = 500
	churnMinSamples  = 2000
	// churnWarm rounds run before measuring: the history fine ring
	// (4096 rounds) and the journal (8192 events) wrap within them.
	churnWarm             = 4200
	churnRoundsPerSecond  = 1800
	churnSetups           = 41
	churnReadErrorProb    = 0.002
	churnReadErrorRetries = 2
	churnSlowFactor       = 1.6
	// Each churnFaultPeriod rounds of the horizon hold one slow window
	// and one failure window at these offsets and lengths.
	churnFaultPeriod = 2000
	churnSlowAt      = 500
	churnSlowRounds  = 100
	churnFailAt      = 1200
	churnFailRounds  = 50
)

// churnRig is the coordinator over its shards, with inputs and tallies.
type churnRig struct {
	coord   *cluster.Coordinator
	engines []engine.Engine
	traced  []*tracedEngine
	reg     *telemetry.Registry
	jnl     *journal.Journal
	hist    *history.Store
	names   []string
	arr     *arrivals
	buf     bytes.Buffer
	lastSeq uint64
	dig     digest
	rounds  int
	// parent is the main loop's current span, read by the traced engines.
	parent int32

	// Tallies over the measured horizon.
	opens, refused                         int64
	fragments, glitches                    int64
	faultyDiskRounds, retries, lost, evict int64
	streamsPerDisk                         float64
	horizonRounds                          int64
}

// churnFaults is shard 0's fault plan, placed inside the measured
// horizon [from, from+horizon): read errors on every disk throughout,
// and in every churnFaultPeriod rounds one latency window on disk 1 and
// one failure window on disk 2. Repeating the incidents makes the glitch
// rate an average over many of them rather than the draw of one.
func churnFaults(seed uint64, from, horizon int) *fault.Plan {
	p := &fault.Plan{
		Seed: subSeed(seed, tagFaults),
		Faults: []fault.Fault{
			{Kind: fault.ReadError, Disk: fault.AllDisks, From: from, Until: from + horizon,
				Prob: churnReadErrorProb, Retries: churnReadErrorRetries},
		},
	}
	for start := from; start+churnFaultPeriod <= from+horizon; start += churnFaultPeriod {
		slow, fail := start+churnSlowAt, start+churnFailAt
		p.Faults = append(p.Faults,
			fault.Fault{Kind: fault.Latency, Disk: 1, From: slow, Until: slow + churnSlowRounds, Factor: churnSlowFactor},
			fault.Fault{Kind: fault.Failure, Disk: 2, From: fail, Until: fail + churnFailRounds})
	}
	return p
}

// newChurnRig builds the cluster as mzserver -shards does: one shared
// registry, journal and ledger; history on the coordinator; no flight
// recorder on the shards. With tr set every shard engine is wrapped in
// the tracing decorator.
func newChurnRig(seed uint64, horizon int, tr *tracer) (*churnRig, error) {
	g := &churnRig{reg: telemetry.NewRegistry(), dig: newDigest(), parent: -1}
	g.jnl = journal.New(journal.Config{Registry: g.reg})
	ledger := journal.NewLedger(journal.LedgerConfig{})
	g.engines = make([]engine.Engine, churnShards)
	for i := range g.engines {
		cfg := paperServerConfig(subSeed(seed, uint64(i)), churnDisks, g.reg)
		if i == 0 {
			cfg.Faults = churnFaults(seed, churnWarm, horizon)
		}
		cfg.Degrade = server.DegradeConfig{Enabled: true}
		cfg.Trace = trace.Config{Disabled: true}
		cfg.Journal = g.jnl
		cfg.Ledger = ledger
		cfg.Shard = i
		cfg.InstanceLabels = []telemetry.Label{telemetry.L("shard", fmt.Sprint(i))}
		t0 := time.Now()
		srv, err := server.New(cfg)
		if tr != nil {
			tr.record(spanNew, -1, t0, time.Since(t0))
		}
		if err != nil {
			return nil, fmt.Errorf("server.New shard %d: %w", i, err)
		}
		g.engines[i] = srv
		if tr != nil {
			te := &tracedEngine{Engine: srv, tr: newTracer(tr.origin, horizon*4), parent: &g.parent}
			g.traced = append(g.traced, te)
			g.engines[i] = te
		}
	}
	g.hist = history.New(history.Config{Registry: g.reg})
	coord, err := cluster.New(cluster.Config{
		Engines:  g.engines,
		Route:    cluster.RouteLeastLoaded,
		Replicas: churnReplicas,
		Registry: g.reg,
		Migrate:  true,
		Journal:  g.jnl,
		Ledger:   ledger,
		History:  g.hist,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster.New: %w", err)
	}
	g.coord = coord
	pop, err := workload.NewZipf(churnClips, churnZipf)
	if err != nil {
		return nil, err
	}
	for _, c := range churnCatalog(seed, churnClips, churnMeanRounds, pop) {
		t0 := time.Now()
		err := coord.AddObject(c.name, c.sizes)
		if tr != nil {
			tr.record(spanAddObject, -1, t0, time.Since(t0))
		}
		if err != nil {
			return nil, fmt.Errorf("AddObject %s: %w", c.name, err)
		}
		g.names = append(g.names, c.name)
	}
	g.arr = newArrivals(seed, tagArrivals, churnArrivals, pop)
	return g, nil
}

// churnTimes collects the host times of one churn phase.
type churnTimes struct {
	step, admit, scrape *samples
}

// round runs one coordinator round: the round's Poisson arrivals open
// streams, one timed Step, the invariant checks, then a scrape every
// churnScrapeEvery rounds and a recalibration every churnRecalEvery.
func (g *churnRig) round(t *churnTimes, tr *tracer, mode roundMode) (int, error) {
	tally := mode == modeHorizon
	for k := g.arr.count(); k > 0; k-- {
		name := g.names[g.arr.object()]
		t0 := time.Now()
		var id int32
		if tr != nil {
			id = tr.begin(spanOpen, -1)
			g.parent = id
		}
		_, _, err := g.coord.Open(name)
		d := time.Since(t0)
		if tr != nil {
			d = tr.finish(id)
		}
		if t != nil {
			t.admit.add(d)
		}
		rejected := errors.Is(err, engine.ErrRejected)
		if err != nil && !rejected {
			return 0, fmt.Errorf("Open %s: %w", name, err)
		}
		if tally {
			g.opens++
			if rejected {
				g.refused++
			}
		}
	}
	active := 0
	for _, e := range g.engines {
		active += e.Active()
	}
	t0 := time.Now()
	var id int32
	if tr != nil {
		id = tr.begin(spanStep, -1)
		g.parent = id
	}
	rep := g.coord.Step()
	d := time.Since(t0)
	if tr != nil {
		d = tr.finish(id)
	}
	if t != nil {
		t.step.add(d)
	}
	g.rounds++
	held := 0
	for _, e := range g.engines {
		held += e.Active()
	}
	if err := checkTickets(rep.Round, g.coord.Tickets(), held); err != nil {
		return 0, err
	}
	if err := g.checkJournal(); err != nil {
		return 0, err
	}
	served, live := 0, 0
	for i := range rep.Shards {
		for _, dr := range rep.Shards[i].Report.Disks {
			served += dr.Requests
			if !dr.Down {
				live++
			}
		}
	}
	if mode != modeExtra {
		g.dig.clusterRound(&rep)
	}
	if tally {
		g.tally(&rep, served, active, live)
	}
	if g.rounds%churnScrapeEvery == 0 {
		t0 := time.Now()
		if err := scrape(g.reg, g.hist, &g.buf, churnQueries(g.rounds), tr); err != nil {
			return 0, err
		}
		if t != nil {
			t.scrape.add(time.Since(t0))
		}
		if err := g.checkJournal(); err != nil {
			return 0, err
		}
	}
	if g.rounds%churnRecalEvery == 0 {
		t0 := time.Now()
		_, err := g.coord.Recalibrate(churnMinSamples)
		d := time.Since(t0)
		if tr != nil {
			tr.record(spanRecalibrate, -1, t0, d)
		}
		if err != nil {
			return 0, fmt.Errorf("Recalibrate: %w", err)
		}
	}
	return served, nil
}

func (g *churnRig) tally(rep *cluster.RoundReport, served, active, live int) {
	for i := range rep.Shards {
		r := &rep.Shards[i].Report
		for _, dr := range r.Disks {
			if dr.Faulty {
				g.faultyDiskRounds++
			}
			g.retries += int64(dr.Retries)
			g.lost += int64(dr.Lost)
		}
		g.evict += int64(len(r.Evicted))
	}
	g.fragments += int64(served)
	g.glitches += int64(rep.Glitches)
	g.streamsPerDisk += ratio(float64(active), float64(live))
	g.horizonRounds++
}

// checkJournal verifies the journal head sequence never decreases.
func (g *churnRig) checkJournal() error {
	seq := g.jnl.Stats().HeadSeq
	if err := checkSeq(g.lastSeq, seq); err != nil {
		return err
	}
	g.lastSeq = seq
	return nil
}

func churnQueries(round int) []history.Query {
	since := int64(round - 64)
	return []history.Query{
		{Series: "mzqos_cluster_tickets", SinceRound: since},
		{Series: "mzqos_server_round_time_seconds", SinceRound: since, Step: 16, Agg: history.AggP99},
	}
}

// churnRun is what one measured churn phase produced.
type churnRun struct {
	rig                    *churnRig
	setup                  []float64
	times                  churnTimes
	phaseRounds            int
	thru                   *rate
	allocsPerRound, heapMB float64
	journalEvents          uint64
}

// churnPhase sets the cluster up churnSetups times (keeping the last
// build), warms it, and measures one phase of the given length.
func churnPhase(seed uint64, seconds float64, tr *tracer) (*churnRun, error) {
	horizon := int(seconds * churnRoundsPerSecond)
	out := &churnRun{}
	for i := 0; i < churnSetups; i++ {
		runtime.GC()
		t0 := time.Now()
		g, err := newChurnRig(seed, horizon, tr)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
		out.rig = g
	}
	g := out.rig
	if err := checkServerGolden(g.engineServer(0)); err != nil {
		return nil, err
	}
	for i := 0; i < churnWarm; i++ {
		if _, err := g.round(nil, tr, modeWarm); err != nil {
			return nil, err
		}
	}
	capacity := int(seconds*churnRoundsPerSecond*3) + 1000
	out.thru = newRate(capacity)
	out.times = churnTimes{
		step:   newSamples(capacity),
		admit:  newSamples(capacity * 12),
		scrape: newSamples(capacity/churnScrapeEvery + 1),
	}
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
		served, err := g.round(&out.times, tr, mode)
		if err != nil {
			return nil, err
		}
		out.thru.add(int64(served), time.Since(t0))
	}
	out.phaseRounds = ph.units
	out.allocsPerRound = float64(mallocs()-m0) / float64(ph.units)
	out.heapMB = programHeapMB(out.times.step, out.times.admit, out.times.scrape, out.thru)
	out.journalEvents = g.jnl.Stats().HeadSeq - seq0
	return out, nil
}

// engineServer returns shard i's server beneath any decorator.
func (g *churnRig) engineServer(i int) *server.Server {
	e := g.engines[i]
	if te, ok := e.(*tracedEngine); ok {
		e = te.Engine
	}
	return e.(*server.Server)
}

func (o *churnRun) endToEnd(res *result) {
	g, t := o.rig, &o.times
	res.add("setup_s", "s", median(o.setup), fmt.Sprintf("median of %d builds", len(o.setup)))
	res.add("round_p50_us", "us", t.step.quantile(0.5)/1e3, t.step.base())
	fps, fpsBase := o.thru.perSecond(100)
	res.add("fragments_per_s", "1/s", fps, "fragments; "+fpsBase)
	res.add("admit_p50_ns", "ns", t.admit.quantile(0.5), t.admit.base())
	res.add("scrape_p50_us", "us", t.scrape.quantile(0.5)/1e3, t.scrape.base())
	res.add("glitch_rate", "ratio", ratio(float64(g.glitches), float64(g.fragments)),
		fmt.Sprintf("%d/%d fragments", g.glitches, g.fragments))
	res.add("block_rate", "ratio", ratio(float64(g.refused), float64(g.opens)),
		fmt.Sprintf("%d/%d opens", g.refused, g.opens))
	res.add("streams_per_disk", "count", g.streamsPerDisk/float64(g.horizonRounds),
		fmt.Sprintf("mean over %d rounds", g.horizonRounds))
	res.add("allocs_per_round", "count", o.allocsPerRound, fmt.Sprintf("%d rounds", o.phaseRounds))
	res.add("heap_mb", "MB", o.heapMB, "live heap after GC")
	res.digest = g.dig.h
	res.horizon = fmt.Sprintf("%d warm + %d measured rounds", churnWarm, g.horizonRounds)
	res.attempted = g.opens + g.fragments
	res.refused = g.refused
	res.glitched = g.glitches
}

func runChurn(opts options) (*result, error) {
	o, err := churnPhase(opts.seed, float64(opts.seconds), nil)
	if err != nil {
		return nil, err
	}
	res := &result{}
	o.endToEnd(res)
	return res, nil
}

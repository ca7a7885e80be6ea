package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"mzqos/internal/disk"
	"mzqos/internal/history"
	"mzqos/internal/model"
	"mzqos/internal/sim"
	"mzqos/internal/telemetry"
	"mzqos/internal/workload"
)

// The montecarlo workload: the §4 validation at Figure 1 scale.
const (
	mcLo, mcHi = 20, 32
	mcDelta    = 0.01
	mcRounds   = 1200
	mcGlitches = 12
	mcEps      = 0.01
	// mcTrials is the fixed trial count per N of one sweep batch.
	mcTrials = 250
	// mcWorkers fixes the simulator's parallelism so its estimates do
	// not depend on the machine's core count.
	mcWorkers          = 2
	mcBatchesPerSecond = 85
	mcSetups           = 501
)

// mcSetup builds the model cold and answers the admission questions the
// validation needs: b_late(N, 1 s) for the sweep, N_max^plate and
// N_max^perror.
type mcSetup struct {
	m             *model.Model
	bounds        []float64 // b_late(N) for N = mcLo..mcHi
	plate, perror int
}

func paperModelConfig() model.Config {
	return model.Config{Disk: disk.QuantumViking21(), Sizes: workload.PaperSizes(), RoundLength: 1}
}

func newMCSetup(tr *tracer) (*mcSetup, error) {
	s := &mcSetup{}
	t0 := time.Now()
	m, err := model.New(paperModelConfig())
	if tr != nil {
		tr.record(spanModelNew, -1, t0, time.Since(t0))
	}
	if err != nil {
		return nil, fmt.Errorf("model.New: %w", err)
	}
	s.m = m
	for n := mcLo; n <= mcHi; n++ {
		t0 := time.Now()
		b, err := m.LateBound(n)
		if tr != nil {
			tr.record(spanLateBound, -1, t0, time.Since(t0))
		}
		if err != nil {
			return nil, fmt.Errorf("LateBound(%d): %w", n, err)
		}
		s.bounds = append(s.bounds, b)
	}
	t0 = time.Now()
	s.plate, err = m.NMaxLate(mcDelta)
	if err == nil {
		s.perror, err = m.NMaxError(mcRounds, mcGlitches, mcEps)
	}
	if tr != nil {
		tr.record(spanNMax, -1, t0, time.Since(t0))
	}
	if err != nil {
		return nil, fmt.Errorf("N_max search: %w", err)
	}
	return s, nil
}

// mcRun is what one measured montecarlo phase produced.
type mcRun struct {
	setup                  []float64
	s                      *mcSetup
	batch, admit, scrapes  *samples
	hits, trials           []int64 // per N over the horizon
	dig                    digest
	horizon                int
	queries, refusedQ      int64
	allocsPerRound, heapMB float64
	sweepTime              time.Duration
	thru                   *rate
	simRounds, simFrags    int64
	scrapeSeries           int
}

// mcPhase sets the model up mcSetups times (keeping the last), then runs
// sweep batches: each batch is one PLateSweep over N = mcLo..mcHi with a
// fixed trial count and its own derived seed, followed by one admission
// query per N against the model.
func mcPhase(seed uint64, seconds float64, tr *tracer) (*mcRun, error) {
	out := &mcRun{dig: newDigest()}
	for i := 0; i < mcSetups; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := newMCSetup(tr)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
		out.s = s
	}
	s := out.s
	if err := checkGolden(s.plate, s.perror, s.bounds[goldenNMaxLate-mcLo]); err != nil {
		return nil, err
	}
	cfg := sim.Config{Disk: disk.QuantumViking21(), Sizes: workload.PaperSizes(), RoundLength: 1, Workers: mcWorkers}
	nN := mcHi - mcLo + 1
	out.hits = make([]int64, nN)
	out.trials = make([]int64, nN)
	out.horizon = int(seconds * mcBatchesPerSecond)
	capacity := out.horizon*3 + 100
	out.batch = newSamples(capacity)
	out.scrapes = newSamples(capacity)
	sc := newMCScraper()
	out.thru = newRate(capacity)
	out.admit = newSamples(capacity * nN)
	m0 := mallocs()
	ph := newPhase(out.horizon, time.Duration(seconds*float64(time.Second)))
	for {
		more, inHorizon := ph.next()
		if !more {
			break
		}
		b := ph.units - 1
		t0 := time.Now()
		ests, err := sim.PLateSweep(cfg, mcLo, mcHi, mcTrials, subSeed(seed, tagSweep+uint64(b)))
		d := time.Since(t0)
		if tr != nil {
			tr.record(spanSweep, -1, t0, d)
		}
		if err != nil {
			return nil, fmt.Errorf("PLateSweep: %w", err)
		}
		out.batch.add(d)
		out.sweepTime += d
		var frags int64
		for i, e := range ests {
			frags += e.Trials * int64(mcLo+i)
			out.simRounds += e.Trials
			if inHorizon {
				out.hits[i] += e.Hits
				out.trials[i] += e.Trials
				out.dig.word(uint64(e.Hits))
			}
		}
		out.simFrags += frags
		out.thru.add(frags, d)
		for n := mcLo; n <= mcHi; n++ {
			t0 := time.Now()
			bl, err := s.m.LateBound(n)
			d := time.Since(t0)
			if tr != nil {
				tr.record(spanLateBoundWarm, -1, t0, d)
			}
			if err != nil {
				return nil, fmt.Errorf("LateBound(%d): %w", n, err)
			}
			out.admit.add(d)
			if inHorizon {
				out.queries++
				if bl > mcDelta {
					out.refusedQ++
				}
			}
		}
		if err := sc.scrape(b, out.scrapes, tr); err != nil {
			return nil, err
		}
	}
	out.scrapeSeries = sc.reg.NumSeries()
	out.allocsPerRound = float64(mallocs()-m0) / float64(out.simRounds)
	out.heapMB = programHeapMB(out.batch, out.scrapes, out.admit, out.thru)
	for i := range out.hits {
		if err := checkWilson(mcLo+i, out.hits[i], out.trials[i], s.bounds[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mcScraper is the telemetry read path of the montecarlo workload: a
// registry exposing the process-wide solver counters and a history store
// sampling it once per batch. After every batch the main loop scrapes it
// once, outside the timed sweep.
type mcScraper struct {
	reg     *telemetry.Registry
	hist    *history.Store
	buf     bytes.Buffer
	queries []history.Query
}

func newMCScraper() *mcScraper {
	reg := telemetry.NewRegistry()
	model.RegisterTelemetry(reg)
	return &mcScraper{
		reg:  reg,
		hist: history.New(history.Config{Registry: reg}),
		queries: []history.Query{
			{Series: "mzqos_model_chain_hits_total"},
			{Series: "mzqos_model_chernoff_solves_total", Step: 32, Agg: history.AggRate},
		},
	}
}

// scrape samples the history for the batch, then times one scrape.
func (m *mcScraper) scrape(batch int, into *samples, tr *tracer) error {
	m.hist.Sample(batch)
	for i := range m.queries {
		m.queries[i].SinceRound = int64(batch - 256)
	}
	t0 := time.Now()
	if err := scrape(m.reg, m.hist, &m.buf, m.queries, tr); err != nil {
		return err
	}
	into.add(time.Since(t0))
	return nil
}

func (o *mcRun) endToEnd(res *result) {
	nN := int64(mcHi - mcLo + 1)
	i26 := goldenNMaxLate - mcLo
	var horizonTrials int64
	for i := range o.trials {
		horizonTrials += o.trials[i]
	}
	res.add("setup_s", "s", median(o.setup), fmt.Sprintf("median of %d builds", len(o.setup)))
	res.add("round_p50_us", "us", o.batch.quantile(0.5)/float64(nN*mcTrials)/1e3,
		fmt.Sprintf("sweep batches n=%d of %d simulated rounds", o.batch.len(), nN*mcTrials))
	fps, fpsBase := o.thru.perSecond(10)
	res.add("fragments_per_s", "1/s", fps, "simulated fragments over sweep time; "+fpsBase)
	res.add("admit_p50_ns", "ns", o.admit.quantile(0.5), o.admit.base()+" LateBound admission queries")
	res.add("scrape_p50_us", "us", o.scrapes.quantile(0.5)/1e3, o.scrapes.base()+" one per batch")
	res.add("glitch_rate", "ratio", ratio(float64(o.hits[i26]), float64(o.trials[i26])),
		fmt.Sprintf("p̂_late(%d) = %d/%d rounds", goldenNMaxLate, o.hits[i26], o.trials[i26]))
	res.add("block_rate", "ratio", ratio(float64(o.refusedQ), float64(o.queries)),
		fmt.Sprintf("%d/%d admission queries with b_late(N) > δ", o.refusedQ, o.queries))
	res.add("streams_per_disk", "count", float64(o.simFrags)/float64(o.simRounds),
		fmt.Sprintf("mean N over %d simulated rounds", o.simRounds))
	res.add("allocs_per_round", "count", o.allocsPerRound, fmt.Sprintf("%d simulated rounds", o.simRounds))
	res.add("heap_mb", "MB", o.heapMB, "live heap after GC")
	res.digest = o.dig.h
	res.horizon = fmt.Sprintf("%d sweep batches × %d trials per N", o.horizon, mcTrials)
	var hits int64
	for _, h := range o.hits {
		hits += h
	}
	res.attempted = horizonTrials + o.queries
	res.refused = o.refusedQ
	res.glitched = hits
}

func runMonteCarlo(opts options) (*result, error) {
	o, err := mcPhase(opts.seed, float64(opts.seconds), nil)
	if err != nil {
		return nil, err
	}
	res := &result{}
	o.endToEnd(res)
	return res, nil
}

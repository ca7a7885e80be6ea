package server

import (
	"slices"

	"mzqos/internal/engine"
	"mzqos/internal/fault"
	"mzqos/internal/journal"
	"mzqos/internal/sim"
	"mzqos/internal/trace"
)

// The round-report vocabulary is shared with every other engine through
// internal/engine (the cluster layer's shard contract); the historical
// server names remain as aliases.
type (
	// DiskRoundReport is the outcome of one disk's sweep in one round.
	DiskRoundReport = engine.DiskRoundReport
	// RoundReport is the outcome of one server round.
	RoundReport = engine.RoundReport
	// RunSummary aggregates a multi-round execution.
	RunSummary = engine.RunSummary
)

// Step executes one round: every active stream whose start round has
// arrived reads its next fragment from its disk of the round; each disk
// serves its requests in one SCAN sweep through sim.Sweep (ascending
// cylinders from a parked arm); requests finishing after the round length
// are glitches for their streams (§2.3). Streams that consumed their final
// fragment complete.
//
// Faults scheduled by Config.Faults perturb the sweep: latency inflation
// scales every phase, zone-rate degradation slows transfers, transient
// read errors cost retry revolutions (and lose the fragment once retries
// are exhausted), and a failed disk serves nothing. With degradation
// enabled the server reacts to sustained faults after the sweep — see
// DegradeConfig.
//
// Determinism: every stream of offset class c reads disk (c+round) mod D,
// so each disk's requests are gathered from one class set in ascending
// StreamID order, and SCAN ties on a cylinder break by gather position,
// hence by StreamID. Disks are swept in index order, so a given
// Config.Seed (plus fault plan) reproduces byte-identical reports run
// after run.
func (s *Server) Step() RoundReport {
	rep := RoundReport{Round: s.round, Disks: make([]DiskRoundReport, len(s.geoms))}
	tracing := s.trc.Enabled()

	// Resolve this round's fault effects once per disk.
	s.effs = s.effs[:0]
	faulty := 0
	for d := range s.geoms {
		eff := s.inj.EffectsAt(d, s.round)
		s.effs = append(s.effs, eff)
		if eff.Active() {
			rep.Disks[d].Faulty = true
			faulty++
			s.tel.disks[d].faultRounds.Inc()
		}
	}
	s.tel.faultActive.Set(float64(faulty))
	if s.jnl != nil {
		// The injector is a pure function of (disk, round), so the
		// inject/clear edges are computed statelessly each round.
		fault.JournalTransitions(s.jnl, s.inj, s.shard, s.round, s.effs)
	}

	// Gather the due requests: class c loads disk (c+round) mod D this
	// round, one class per disk, and each class set is in ascending
	// StreamID order. A request's Index is its position in s.due, which
	// maps it back to its stream after the sweep.
	s.due = s.due[:0]
	for c, set := range s.classes {
		d := (c + s.round) % len(s.geoms)
		reqs := s.perDisk[d][:0]
		for _, st := range set {
			if s.round < st.start {
				continue
			}
			f := st.obj.frags[st.next]
			reqs = append(reqs, sim.SweepRequest{
				Index: len(s.due), Cylinder: f.loc.Cylinder, Zone: f.loc.Zone, Size: f.size,
			})
			s.due = append(s.due, st)
		}
		s.perDisk[d] = reqs
	}
	if cap(s.finish) < len(s.due) {
		s.finish = make([]float64, len(s.due))
	}
	finish := s.finish[:len(s.due)]

	var span *trace.RoundSpan
	if tracing {
		span = &s.trcSpan
	}
	s.done = s.done[:0]
	for d, reqs := range s.perDisk {
		if len(reqs) == 0 {
			continue
		}
		eff := s.effs[d]
		dr := &rep.Disks[d]
		sim.Sweep(reqs, s.geoms[d], 0, s.cfg.RoundLength, eff, s.rng, s.inj, d, s.round, dr, finish, span)
		// reqs is now in service order; a down disk served nothing and
		// delivered no bytes.
		for _, r := range reqs {
			st := s.due[r.Index]
			st.served++
			if !eff.Failed {
				s.observed.Add(r.Size)
			}
			if finish[r.Index] > s.cfg.RoundLength {
				st.glitches++
				rep.Glitches++
			}
			st.next++
			if st.next >= len(st.obj.frags) {
				s.done = append(s.done, st)
			}
		}
		s.observeSweep(d, dr)
		if tracing {
			// Sweep labels events by request index; the trace wants streams.
			for k := range span.Requests {
				span.Requests[k].Stream = int64(s.due[reqs[k].Index].id)
			}
			s.trc.Record(span)
			if eff.Failed {
				s.trc.Freeze("down_round", s.round)
			}
		}
	}
	s.tel.rounds.Inc()
	s.tel.glitches.Add(int64(rep.Glitches))
	if rep.Glitches > 0 {
		if tracing {
			s.trc.Freeze("glitch", s.round)
		}
		if s.jnl != nil {
			// One event per glitching round with the round's fragment
			// total — per-stream glitch accounting lives in the ledger.
			s.jnl.Append(journal.Event{
				Round: s.round,
				Kind:  journal.KindGlitch,
				Shard: s.shard,
				Disk:  -1,
				From:  -1,
				To:    -1,
				Value: float64(rep.Glitches),
			})
		}
	}

	for _, st := range s.done {
		rep.Completed = append(rep.Completed, st.id)
		s.retire(st, true)
	}
	slices.Sort(rep.Completed)
	// The scratch must not keep retired streams reachable past the round.
	clear(s.due)
	clear(s.done)
	rep.Evicted = s.adaptToFaults(s.effs)
	// Close the round for the SLO audit after fault adaptation so a
	// degraded round is already measured against its re-derived budgets,
	// then record the round into the embedded history while the round
	// counter still names the round the gauges describe.
	s.auditSLO()
	s.hist.Sample(s.round)
	s.round++
	return rep
}

// Run executes n rounds and returns an aggregate summary.
func (s *Server) Run(n int) RunSummary {
	var sum RunSummary
	sum.FirstRound = s.round
	for i := 0; i < n; i++ {
		sum.Observe(s.Step())
	}
	sum.DiskTime = float64(n) * s.cfg.RoundLength * float64(len(s.geoms))
	return sum
}

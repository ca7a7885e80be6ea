package sim

import (
	"math"
	"math/rand/v2"
	"slices"

	"mzqos/internal/disk"
	"mzqos/internal/engine"
	"mzqos/internal/fault"
	"mzqos/internal/trace"
)

// SweepRequest is one fragment read queued for a SCAN sweep. Index is the
// caller's request index: it breaks cylinder ties, labels trace events,
// and addresses the per-request outputs. The sort moves the element, so
// it stays at four words.
type SweepRequest struct {
	Index    int
	Cylinder int
	Zone     int
	Size     float64
}

// DownRoundSentinel is the round time, in round lengths, recorded for a
// sweep that never happened because the disk was down. It lies beyond the
// round-time histogram's top finite bucket (8t), so a down round lands in
// the +Inf bucket and counts against the empirical late tail with a finite
// sum — the honest reading of "the deadline was missed by the whole round".
const DownRoundSentinel = 16

// Sweep is the SCAN service kernel every round of the system runs
// through: the server's Step, the Monte-Carlo estimators, the simulated
// engine, and the mixed-workload and buffer simulators.
//
// It sorts reqs in place by cylinder (ties by Index) and serves them in
// one sweep from an arm parked at cylinder 0, starting at clock start.
// Each request pays seek, a rotational latency drawn from rng, and
// transfer, all scaled by eff. A read error costs one (inflated)
// revolution per retry, charged to Rotation; once eff.Retries retries are
// spent the fragment is lost. Read errors come from
// inj.ReadError(diskIdx, round, position, attempt) when inj is non-nil,
// and otherwise from rng at eff.ErrorProb. A request finishing strictly
// after deadline is late. A down disk (eff.Failed) serves nothing: reqs
// stay in caller order, every request is lost, and rng is not drawn.
//
// Sweep fills dr's Requests, Down, Busy, Seek, Rotation, Transfer, Late,
// Lost and Retries. When finish is non-nil, finish[Index] receives each
// request's completion clock (+Inf when lost). When span is non-nil, it
// receives the sweep's per-request events (Stream = Index) and totals,
// ready for trace.Recorder.Record. Returns the clock at the sweep's end.
func Sweep(reqs []SweepRequest, g *disk.Geometry, start, deadline float64, eff fault.Effects,
	rng *rand.Rand, inj *fault.Injector, diskIdx, round int,
	dr *engine.DiskRoundReport, finish []float64, span *trace.RoundSpan) float64 {
	if span != nil {
		span.Requests = span.Requests[:0]
	}
	if eff.Failed {
		*dr = engine.DiskRoundReport{Requests: len(reqs), Faulty: dr.Faulty, Lost: len(reqs), Down: true}
		for _, r := range reqs {
			if finish != nil {
				finish[r.Index] = math.Inf(1)
			}
			if span != nil {
				var ev *trace.RequestEvent
				span.Requests, ev = trace.NextEvent(span.Requests)
				*ev = trace.RequestEvent{Stream: int64(r.Index), Cylinder: r.Cylinder, Zone: r.Zone, Bytes: r.Size, Lost: true}
			}
		}
		fillSpan(span, dr, eff, diskIdx, round, DownRoundSentinel*(deadline-start))
		return start
	}

	// Cylinders and indices are non-negative ints, so their differences
	// cannot overflow; they sort measurably faster than cmp.Compare here.
	slices.SortFunc(reqs, func(a, b SweepRequest) int {
		if a.Cylinder != b.Cylinder {
			return a.Cylinder - b.Cylinder
		}
		return a.Index - b.Index
	})
	revolution := g.RotationTime * eff.LatencyScale
	var seekSum, rotSum, transSum float64
	late, lost, retriesSum := 0, 0, 0
	arm := 0
	clock := start
	for pos := range reqs {
		r := &reqs[pos]
		seekCyl := r.Cylinder - arm
		if seekCyl < 0 {
			seekCyl = -seekCyl
		}
		seek := g.Seek.Time(float64(seekCyl)) * eff.LatencyScale
		rot := rng.Float64() * g.RotationTime * eff.LatencyScale
		trans := g.TransferTime(r.Size, r.Zone) * eff.LatencyScale / eff.RateScale
		begin := clock
		clock += seek
		clock += rot
		clock += trans
		seekSum += seek
		rotSum += rot
		transSum += trans
		arm = r.Cylinder

		isLost := false
		retries := 0
		if eff.ErrorProb > 0 {
			for attempt := 0; ; attempt++ {
				var fails bool
				if inj != nil {
					fails = inj.ReadError(diskIdx, round, pos, attempt)
				} else {
					fails = rng.Float64() < eff.ErrorProb
				}
				if !fails {
					break
				}
				if attempt >= eff.Retries {
					isLost = true // retries exhausted: the fragment is lost
					break
				}
				clock += revolution
				rotSum += revolution
				rot += revolution
				retries++
			}
			retriesSum += retries
		}
		isLate := !isLost && clock > deadline
		switch {
		case isLost:
			lost++
		case isLate:
			late++
		}
		if finish != nil {
			if isLost {
				finish[r.Index] = math.Inf(1)
			} else {
				finish[r.Index] = clock
			}
		}
		if span != nil {
			var ev *trace.RequestEvent
			span.Requests, ev = trace.NextEvent(span.Requests)
			*ev = trace.RequestEvent{
				Stream:        int64(r.Index),
				Cylinder:      r.Cylinder,
				Zone:          r.Zone,
				SeekCylinders: seekCyl,
				Bytes:         r.Size,
				Start:         begin - start,
				Seek:          seek,
				Rotation:      rot,
				Transfer:      trans,
				Retries:       retries,
				Late:          isLate,
				Lost:          isLost,
			}
		}
	}
	*dr = engine.DiskRoundReport{
		Requests: len(reqs),
		Busy:     clock - start,
		Seek:     seekSum,
		Rotation: rotSum,
		Transfer: transSum,
		Late:     late,
		Faulty:   dr.Faulty,
		Retries:  retriesSum,
		Lost:     lost,
	}
	fillSpan(span, dr, eff, diskIdx, round, dr.Busy)
	return clock
}

// fillSpan copies a finished sweep's totals into its trace span (no-op
// for a nil span). observed is what the round-time histogram records.
func fillSpan(span *trace.RoundSpan, dr *engine.DiskRoundReport, eff fault.Effects, diskIdx, round int, observed float64) {
	if span == nil {
		return
	}
	*span = trace.RoundSpan{
		Round:    round,
		Disk:     diskIdx,
		Requests: span.Requests,
		Seek:     dr.Seek,
		Rotation: dr.Rotation,
		Transfer: dr.Transfer,
		Busy:     dr.Busy,
		Observed: observed,
		Late:     dr.Late,
		Lost:     dr.Lost,
		Retries:  dr.Retries,
		Faulty:   eff.Active(),
		Down:     eff.Failed,
	}
}

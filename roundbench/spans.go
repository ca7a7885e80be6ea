package main

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"mzqos/internal/engine"
)

// spanKind names the public call a span wraps.
type spanKind uint8

const (
	spanNew spanKind = iota
	spanAddObject
	spanOpen
	spanStep
	spanRecalibrate
	spanExpose
	spanQuery
	spanModelNew
	spanLateBound
	spanLateBoundWarm
	spanNMax
	spanSweep
	spanShardOpen
	spanShardStep
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"New", "AddObject", "Open", "Step", "Recalibrate", "WritePrometheus", "Query",
	"model.New", "LateBound", "LateBound.warm", "NMax", "PLateSweep", "engine.Open", "engine.Step",
}

// span is one timed call. Times are nanoseconds since the tracer origin;
// parent indexes the caller's span in the main loop's tracer (-1 for none).
type span struct {
	kind       spanKind
	parent     int32
	start, end int64
}

// tracer keeps spans in memory for the traced run; the summary is
// written out when the run ends. One tracer is written by one goroutine
// at a time: the main loop owns one, and each decorated shard engine owns
// its own.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer(origin time.Time, capacity int) *tracer {
	return &tracer{origin: origin, spans: make([]span, 0, capacity)}
}

// record appends a finished call that started at t0 and took d, and
// returns its span index.
func (t *tracer) record(kind spanKind, parent int32, t0 time.Time, d time.Duration) int32 {
	s := int64(t0.Sub(t.origin))
	t.spans = append(t.spans, span{kind: kind, parent: parent, start: s, end: s + int64(d)})
	return int32(len(t.spans) - 1)
}

// begin opens a span whose children are recorded before it ends.
func (t *tracer) begin(kind spanKind, parent int32) int32 {
	s := int64(time.Since(t.origin))
	t.spans = append(t.spans, span{kind: kind, parent: parent, start: s, end: s})
	return int32(len(t.spans) - 1)
}

// finish closes a span opened by begin and returns its duration.
func (t *tracer) finish(id int32) time.Duration {
	sp := &t.spans[id]
	sp.end = int64(time.Since(t.origin))
	return time.Duration(sp.end - sp.start)
}

// durations returns the durations of every span of one kind.
func (t *tracer) durations(kind spanKind) []int64 {
	var out []int64
	for _, sp := range t.spans {
		if sp.kind == kind {
			out = append(out, sp.end-sp.start)
		}
	}
	return out
}

// summary renders one line per span kind: count, median and total.
func (t *tracer) summary(prefix string) []string {
	var lines []string
	for k := spanKind(0); k < numSpanKinds; k++ {
		d := t.durations(k)
		if len(d) == 0 {
			continue
		}
		var total int64
		for _, v := range d {
			total += v
		}
		lines = append(lines, fmt.Sprintf("span %s%-16s count=%-8d p50=%-10.0fns total=%.3fs",
			prefix, spanNames[k], len(d), quantileNS(d, 0.5), float64(total)/1e9))
	}
	return lines
}

// selfTimes returns, for every span of the given kind in the parent
// tracer, its duration minus the part of its interval that child spans
// (from any of the children tracers) cover. Children recorded on
// parallel shards overlap; the covered part is their union.
func selfTimes(parent *tracer, kind spanKind, children []*tracer) []int64 {
	byParent := make(map[int32][][2]int64)
	for _, c := range children {
		for _, sp := range c.spans {
			if sp.parent >= 0 {
				byParent[sp.parent] = append(byParent[sp.parent], [2]int64{sp.start, sp.end})
			}
		}
	}
	var out []int64
	for i, sp := range parent.spans {
		if sp.kind != kind {
			continue
		}
		out = append(out, (sp.end-sp.start)-covered(sp.start, sp.end, byParent[int32(i)]))
	}
	return out
}

// covered returns the length of [lo, hi) covered by the union of the
// intervals.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var total int64
	curLo, curHi := int64(0), int64(-1)
	flush := func() {
		if curHi > curLo {
			total += min(curHi, hi) - max(curLo, lo)
		}
	}
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			flush()
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	flush()
	return total
}

// tracedEngine is the benchmark's engine decorator for the traced churn
// run: it records a child span around every shard Open and Step, under
// the coordinator call the main loop is making, and counts engine-level
// admission refusals. Every other method passes through.
type tracedEngine struct {
	engine.Engine
	tr *tracer
	// parent points at the main loop's current span index; the loop sets
	// it before each coordinator call, which happens-before the shard
	// calls that call makes.
	parent  *int32
	rejects int64
}

func (e *tracedEngine) Open(name string) (engine.StreamID, int, error) {
	t0 := time.Now()
	id, delay, err := e.Engine.Open(name)
	e.tr.record(spanShardOpen, *e.parent, t0, time.Since(t0))
	if errors.Is(err, engine.ErrRejected) {
		e.rejects++
	}
	return id, delay, err
}

func (e *tracedEngine) Step() engine.RoundReport {
	t0 := time.Now()
	rep := e.Engine.Step()
	e.tr.record(spanShardStep, *e.parent, t0, time.Since(t0))
	return rep
}

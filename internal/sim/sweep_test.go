package sim

import (
	"math"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/dist"
	"mzqos/internal/engine"
	"mzqos/internal/fault"
	"mzqos/internal/trace"
)

// sweepFixture is a hand-built request set: two requests share cylinder
// 1500 and arrive in reverse Index order, so SCAN must serve Index 0
// before Index 2 by the tie-break.
func sweepFixture(g *disk.Geometry) []SweepRequest {
	req := func(index, cyl int, size float64) SweepRequest {
		return SweepRequest{Index: index, Cylinder: cyl, Zone: g.ZoneOfCylinder(cyl), Size: size}
	}
	return []SweepRequest{
		req(2, 1500, 40e3),
		req(1, 300, 90e3),
		req(0, 1500, 60e3),
		req(3, 2600, 120e3),
	}
}

// TestSweepContract pins the kernel's arithmetic to the disk formulas:
// SCAN order with the Index tie-break, the first seek from cylinder 0,
// phases scaled by the effects, Busy measured from the start clock, and
// lateness strictly after the deadline.
func TestSweepContract(t *testing.T) {
	g := disk.QuantumViking21()
	eff := fault.Effects{LatencyScale: 1.25, RateScale: 0.8}
	const start = 0.25
	wantOrder := []int{1, 0, 2, 3}

	// Expected completion clocks, from the formulas and a twin rng.
	twin := dist.NewRand(5, 6)
	fixture := sweepFixture(g)
	byIndex := map[int]SweepRequest{}
	for _, r := range fixture {
		byIndex[r.Index] = r
	}
	var wantSeek, wantRot, wantTrans float64
	wantFinish := make([]float64, len(fixture))
	arm, clock := 0, start
	for _, idx := range wantOrder {
		r := byIndex[idx]
		seek := g.Seek.Time(math.Abs(float64(r.Cylinder-arm))) * eff.LatencyScale
		rot := twin.Float64() * g.RotationTime * eff.LatencyScale
		trans := g.TransferTime(r.Size, r.Zone) * eff.LatencyScale / eff.RateScale
		clock += seek
		clock += rot
		clock += trans
		wantSeek += seek
		wantRot += rot
		wantTrans += trans
		wantFinish[idx] = clock
		arm = r.Cylinder
	}
	// The deadline falls exactly on the second request's completion: it
	// is on time, the two after it are late.
	deadline := wantFinish[wantOrder[1]]

	reqs := sweepFixture(g)
	finish := make([]float64, len(reqs))
	var dr engine.DiskRoundReport
	var span trace.RoundSpan
	end := Sweep(reqs, g, start, deadline, eff, dist.NewRand(5, 6), nil, 3, 9, &dr, finish, &span)

	for pos, r := range reqs {
		if r.Index != wantOrder[pos] {
			t.Fatalf("position %d serves index %d, want %d (order %v)", pos, r.Index, wantOrder[pos], wantOrder)
		}
	}
	for i, f := range finish {
		if f != wantFinish[i] {
			t.Errorf("finish[%d] = %v, want %v", i, f, wantFinish[i])
		}
	}
	want := engine.DiskRoundReport{
		Requests: 4, Busy: clock - start, Seek: wantSeek, Rotation: wantRot, Transfer: wantTrans, Late: 2,
	}
	if dr != want {
		t.Errorf("report = %+v, want %+v", dr, want)
	}
	if end != clock {
		t.Errorf("end clock = %v, want %v", end, clock)
	}
	if span.Round != 9 || span.Disk != 3 || span.Busy != dr.Busy || span.Observed != dr.Busy || span.Late != 2 || len(span.Requests) != 4 {
		t.Fatalf("span = %+v", span)
	}
	if ev := span.Requests[0]; ev.Stream != 1 || ev.SeekCylinders != 300 || ev.Start != 0 {
		t.Errorf("first event = %+v, want stream 1 seeking 300 cylinders from 0 at offset 0", ev)
	}
	if ev := span.Requests[2]; ev.SeekCylinders != 0 || !ev.Late {
		t.Errorf("tied event = %+v, want zero seek and late", ev)
	}
}

// TestSweepRetriesAndLoss: under an always-failing read, each request
// draws its rotation, pays one inflated revolution per retry (charged to
// Rotation), and is lost once its retries run out — lost, not late.
func TestSweepRetriesAndLoss(t *testing.T) {
	g := disk.QuantumViking21()
	eff := fault.Effects{LatencyScale: 2, RateScale: 1, ErrorProb: 1, Retries: 2}
	rev := g.RotationTime * eff.LatencyScale

	twin := dist.NewRand(8, 9)
	var wantRot float64
	for range 4 {
		wantRot += twin.Float64() * g.RotationTime * eff.LatencyScale
		for attempt := 0; attempt <= eff.Retries; attempt++ {
			twin.Float64() // the read-error draws, all failing
		}
		wantRot += rev
		wantRot += rev
	}

	reqs := sweepFixture(g)
	finish := make([]float64, len(reqs))
	var dr engine.DiskRoundReport
	rng := dist.NewRand(8, 9)
	Sweep(reqs, g, 0, 1e-9, eff, rng, nil, 0, 0, &dr, finish, nil)
	if dr.Lost != 4 || dr.Retries != 8 || dr.Late != 0 {
		t.Errorf("lost/retries/late = %d/%d/%d, want 4/8/0", dr.Lost, dr.Retries, dr.Late)
	}
	if dr.Rotation != wantRot {
		t.Errorf("rotation = %v, want %v", dr.Rotation, wantRot)
	}
	if math.Abs(dr.Seek+dr.Rotation+dr.Transfer-dr.Busy) > 1e-9 {
		t.Errorf("busy %v != phase sum %v", dr.Busy, dr.Seek+dr.Rotation+dr.Transfer)
	}
	for i, f := range finish {
		if !math.IsInf(f, 1) {
			t.Errorf("finish[%d] = %v, want +Inf for a lost fragment", i, f)
		}
	}
	if rng.Float64() != twin.Float64() {
		t.Error("kernel drew a different number of values than rotation plus retries")
	}

	// The injector's hash draws replace the rng's error draws.
	inj, err := fault.NewInjector(fault.Plan{Faults: []fault.Fault{
		{Kind: fault.ReadError, Disk: 1, From: 0, Prob: 1, Retries: 2},
	}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng, twin = dist.NewRand(8, 9), dist.NewRand(8, 9)
	Sweep(sweepFixture(g), g, 0, 1, inj.EffectsAt(1, 0), rng, inj, 1, 0, &dr, nil, nil)
	for range 4 {
		twin.Float64()
	}
	if dr.Lost != 4 || dr.Retries != 8 || rng.Float64() != twin.Float64() {
		t.Errorf("injector sweep: lost %d retries %d, or it drew read errors from the rng", dr.Lost, dr.Retries)
	}
}

// TestSweepDownDisk: a down disk serves nothing, keeps caller order, loses
// every request, and draws nothing from the rng.
func TestSweepDownDisk(t *testing.T) {
	g := disk.QuantumViking21()
	reqs := sweepFixture(g)
	finish := make([]float64, len(reqs))
	dr := engine.DiskRoundReport{Faulty: true}
	var span trace.RoundSpan
	rng, twin := dist.NewRand(1, 2), dist.NewRand(1, 2)
	end := Sweep(reqs, g, 3, 4, fault.Effects{LatencyScale: 1, RateScale: 1, Failed: true}, rng, nil, 0, 7, &dr, finish, &span)
	if want := (engine.DiskRoundReport{Requests: 4, Faulty: true, Lost: 4, Down: true}); dr != want {
		t.Errorf("report = %+v, want %+v", dr, want)
	}
	if end != 3 {
		t.Errorf("end clock = %v, want the start clock 3", end)
	}
	if rng.Float64() != twin.Float64() {
		t.Error("down sweep drew from the rng")
	}
	for pos, r := range reqs {
		if r != sweepFixture(g)[pos] {
			t.Errorf("down sweep reordered position %d", pos)
		}
		if !math.IsInf(finish[r.Index], 1) {
			t.Errorf("finish[%d] = %v, want +Inf", r.Index, finish[r.Index])
		}
	}
	if !span.Down || span.Lost != 4 || span.Busy != 0 || span.Observed != DownRoundSentinel*1.0 || len(span.Requests) != 4 {
		t.Errorf("down span = %+v", span)
	}
}

// TestSweepAllocs: the kernel allocates nothing, with tracing off and,
// once the span's event buffer has grown, with tracing on.
func TestSweepAllocs(t *testing.T) {
	g := disk.QuantumViking21()
	eff := fault.Effects{LatencyScale: 1, RateScale: 1, ErrorProb: 0.3, Retries: 1}
	reqs := sweepFixture(g)
	finish := make([]float64, len(reqs))
	rng := dist.NewRand(1, 1)
	var dr engine.DiskRoundReport
	if n := testing.AllocsPerRun(100, func() {
		Sweep(reqs, g, 0, 1, eff, rng, nil, 0, 0, &dr, finish, nil)
	}); n != 0 {
		t.Errorf("tracing off: %v allocs per sweep, want 0", n)
	}
	var span trace.RoundSpan
	Sweep(reqs, g, 0, 1, eff, rng, nil, 0, 0, &dr, finish, &span) // warm-up grows the buffer
	if n := testing.AllocsPerRun(100, func() {
		Sweep(reqs, g, 0, 1, eff, rng, nil, 0, 0, &dr, finish, &span)
	}); n != 0 {
		t.Errorf("tracing on: %v allocs per sweep, want 0", n)
	}
}

package server

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"mzqos/internal/disk"
	"mzqos/internal/dist"
	"mzqos/internal/engine"
	"mzqos/internal/fault"
	"mzqos/internal/model"
	"mzqos/internal/workload"
)

// churnServer builds a seeded 16-disk paper-parameter server with
// degradation on under the given fault plan, plus a 48-object catalog of
// 150–449-round objects drawn from a test-side rng.
func churnServer(t testing.TB, plan *fault.Plan) *Server {
	t.Helper()
	s, err := New(Config{
		Disk:        disk.QuantumViking21(),
		NumDisks:    16,
		RoundLength: 1,
		Sizes:       workload.PaperSizes(),
		Guarantee:   model.Guarantee{Threshold: 0.01},
		Seed:        1997,
		Faults:      plan,
		Degrade:     DegradeConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := dist.NewRand(31, 7)
	for i := 0; i < 48; i++ {
		if err := s.AddSyntheticObject(fmt.Sprintf("o%d", i), 150+r.IntN(300)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// churnTally counts the operations a churn script completed, so tests can
// check the script really exercised every path.
type churnTally struct {
	opens, rejects, closes, pauses, resumes, exports, imports, evicted int
}

// runChurn drives s for the given number of rounds through a seeded mix
// of Open, Close, Pause, Resume, ExportStream, ImportStream and Step,
// folding every operation's outcome and every RoundReport into the
// returned hash. after, when non-nil, runs after every operation. Targets
// are picked from ActiveStreams, whose ascending order is part of the
// server's contract, so the script is a pure function of the seed and the
// server's outcomes.
func runChurn(t testing.TB, s *Server, rounds int, after func(op string)) (uint64, churnTally) {
	t.Helper()
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	num := func(v int) { word(uint64(int64(v))) }
	ok := func(err error) {
		if err != nil {
			word(1)
		} else {
			word(0)
		}
	}
	done := func(op string) {
		if after != nil {
			after(op)
		}
	}
	r := dist.NewRand(5, 3)
	var (
		tally   churnTally
		paused  []StreamID
		pending []engine.StreamState
	)
	pick := func() (StreamID, bool) {
		ids := s.ActiveStreams()
		if len(ids) == 0 {
			return 0, false
		}
		return ids[r.IntN(len(ids))], true
	}
	open := func() {
		id, delay, err := s.Open(fmt.Sprintf("o%d", r.IntN(48)))
		num(int(id))
		num(delay)
		ok(err)
		if err != nil {
			tally.rejects++
		} else {
			tally.opens++
		}
		done("open")
	}
	for i := 0; i < s.Capacity(); i++ {
		open()
	}
	for round := 0; round < rounds; round++ {
		for n := r.IntN(4); n > 0; n-- {
			open()
		}
		if r.Float64() < 0.3 {
			if id, found := pick(); found {
				ok(s.Close(id))
				tally.closes++
				done("close")
			}
		}
		if r.Float64() < 0.2 {
			if id, found := pick(); found {
				ok(s.Pause(id))
				paused = append(paused, id)
				tally.pauses++
				done("pause")
			}
		}
		if len(paused) > 0 && r.Float64() < 0.25 {
			k := r.IntN(len(paused))
			if r.Float64() < 0.1 {
				ok(s.Close(paused[k]))
				paused = append(paused[:k], paused[k+1:]...)
				tally.closes++
				done("close-paused")
			} else {
				delay, err := s.Resume(paused[k])
				num(delay)
				ok(err)
				if err == nil {
					paused = append(paused[:k], paused[k+1:]...)
					tally.resumes++
				}
				done("resume")
			}
		}
		if r.Float64() < 0.15 {
			if id, found := pick(); found {
				state, err := s.ExportStream(id)
				ok(err)
				num(state.Position)
				pending = append(pending, state)
				tally.exports++
				done("export")
			}
		}
		if len(pending) > 0 && r.Float64() < 0.3 {
			id, delay, err := s.ImportStream(pending[0])
			num(int(id))
			num(delay)
			ok(err)
			if err == nil {
				pending = pending[1:]
				tally.imports++
			}
			done("import")
		}

		rep := s.Step()
		num(rep.Round)
		num(len(rep.Disks))
		for _, dr := range rep.Disks {
			num(dr.Requests)
			word(math.Float64bits(dr.Busy))
			word(math.Float64bits(dr.Seek))
			word(math.Float64bits(dr.Rotation))
			word(math.Float64bits(dr.Transfer))
			num(dr.Late)
			num(dr.Retries)
			num(dr.Lost)
			num(boolInt(dr.Faulty) | boolInt(dr.Down)<<1)
		}
		num(rep.Glitches)
		num(len(rep.Completed))
		for _, id := range rep.Completed {
			num(int(id))
		}
		num(len(rep.Evicted))
		for _, id := range rep.Evicted {
			num(int(id))
		}
		tally.evicted += len(rep.Evicted)
		done("step")
		// Migrate the first stream the controller shed, as a cluster
		// coordinator would.
		if len(rep.Evicted) > 0 {
			state, err := s.ExportStream(rep.Evicted[0])
			ok(err)
			if err == nil {
				pending = append(pending, state)
			}
			done("export-evicted")
		}
	}
	num(s.Active())
	num(s.Paused())
	return h.Sum64(), tally
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// goldenPlan layers a latency window on one disk over an array-wide
// read-error window, so the degraded-mode controller re-derives its
// limits twice, sheds, and finally restores the healthy limits.
func goldenPlan() *fault.Plan {
	return &fault.Plan{
		Seed: 11,
		Faults: []fault.Fault{
			{Kind: fault.ReadError, Disk: fault.AllDisks, From: 200, Until: 1400, Prob: 0.02, Retries: 1},
			{Kind: fault.Latency, Disk: 5, From: 800, Until: 1100, Factor: 1.6},
		},
	}
}

// goldenChurnHash pins the reports of a 2000-round churn script on a
// 16-disk server. It was computed at commit 15ac640, whose Step sorted
// every active StreamID each round, so it shows that gathering from the
// per-class sets serves the same requests in the same order and draws
// the same rotations and read errors.
const goldenChurnHash uint64 = 0xc74fb4a0e2310a5f

// TestGoldenChurnReports replays the churn script and compares its hash of
// every operation outcome and RoundReport with the pinned value.
// TestStepDeterminism only compares two runs of the same build; this one
// compares against an earlier implementation of the round.
func TestGoldenChurnReports(t *testing.T) {
	s := churnServer(t, goldenPlan())
	got, tally := runChurn(t, s, 2000, nil)
	t.Logf("tally %+v", tally)
	if got != goldenChurnHash {
		t.Errorf("churn hash = %#x, want %#x", got, goldenChurnHash)
	}
}

package server

import (
	"fmt"
	"slices"
	"testing"

	"mzqos/internal/fault"
)

// checkClassSets fails t unless the per-class stream sets agree with the
// active map (see classSetsErr).
func checkClassSets(t testing.TB, s *Server) {
	t.Helper()
	if err := classSetsErr(s); err != nil {
		t.Fatal(err)
	}
}

// classSetsErr verifies the per-class stream sets: each set strictly
// ascending by StreamID, every member in the class of its offset, the
// union equal to the active map, and the set lengths equal to the
// occupancy AdmissionStatus publishes.
func classSetsErr(s *Server) error {
	if len(s.classes) != s.NumDisks() {
		return fmt.Errorf("%d class sets, want %d", len(s.classes), s.NumDisks())
	}
	members := 0
	counts := make([]int, len(s.classes))
	for c, set := range s.classes {
		for i, st := range set {
			if i > 0 && set[i-1].id >= st.id {
				return fmt.Errorf("class %d not strictly ascending at %d: %d then %d", c, i, set[i-1].id, st.id)
			}
			if st.offset != c {
				return fmt.Errorf("stream %d has offset %d but sits in class %d", st.id, st.offset, c)
			}
			if s.active[st.id] != st {
				return fmt.Errorf("stream %d of class %d is not the active map's entry", st.id, c)
			}
		}
		members += len(set)
		counts[c] = len(set)
	}
	if members != len(s.active) {
		return fmt.Errorf("class sets hold %d streams, active map %d", members, len(s.active))
	}
	if got := s.AdmissionStatus().Classes; !slices.Equal(got, counts) {
		return fmt.Errorf("AdmissionStatus classes %v, set lengths %v", got, counts)
	}
	return nil
}

// TestClassSetInvariants runs a seeded mix of every admitting and
// removing operation, plus rounds that degrade, shed and restore, and
// checks the class sets after each one.
func TestClassSetInvariants(t *testing.T) {
	plan := &fault.Plan{
		Seed: 3,
		Faults: []fault.Fault{
			{Kind: fault.ReadError, Disk: fault.AllDisks, From: 40, Until: 300, Prob: 0.02, Retries: 1},
			{Kind: fault.Latency, Disk: 2, From: 120, Until: 220, Factor: 1.6},
		},
	}
	s := churnServer(t, plan)
	checkClassSets(t, s)
	_, tally := runChurn(t, s, 400, func(op string) {
		if err := classSetsErr(s); err != nil {
			t.Fatalf("after %s in round %d: %v", op, s.Round(), err)
		}
	})
	if tally.rejects == 0 || tally.resumes == 0 || tally.imports == 0 || tally.evicted == 0 {
		t.Fatalf("script missed a path: %+v", tally)
	}
}

// TestResumeInsertsInOrder pins the one non-append insert: a resumed
// stream re-enters its class below streams admitted after it paused.
func TestResumeInsertsInOrder(t *testing.T) {
	s := paperServer(t, 1)
	for i := 0; i < 4; i++ {
		if err := s.AddSyntheticObject(fmt.Sprintf("v%d", i), 50); err != nil {
			t.Fatal(err)
		}
	}
	first, _, err := s.Open("v0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Pause(first); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if _, _, err := s.Open(fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Resume(first); err != nil {
		t.Fatal(err)
	}
	checkClassSets(t, s)
	if got := s.classes[0][0].id; got != first {
		t.Errorf("class 0 starts with %d, want resumed stream %d", got, first)
	}
}

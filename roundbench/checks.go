package main

import (
	"fmt"
	"math"

	"mzqos/internal/dist"
	"mzqos/internal/engine"
)

// The paper's golden numbers (§3 and Figure 1, Quantum Viking 2.1, Gamma
// 200/100 KB fragments, t = 1 s): N_max^plate at δ = 0.01, N_max^perror
// at M = 1200, g = 12, ε = 0.01, and b_late(26, 1 s) to five decimals.
const (
	goldenNMaxLate  = 26
	goldenNMaxError = 28
	goldenBLate26   = 0.00361
)

// checkGolden compares the model's admission limits and bound against the
// paper's published values.
func checkGolden(nmaxLate, nmaxError int, bLate26 float64) error {
	if nmaxLate != goldenNMaxLate {
		return fmt.Errorf("%w: N_max^plate = %d, want %d", errCheck, nmaxLate, goldenNMaxLate)
	}
	if nmaxError != goldenNMaxError {
		return fmt.Errorf("%w: N_max^perror = %d, want %d", errCheck, nmaxError, goldenNMaxError)
	}
	if math.Abs(bLate26-goldenBLate26) > 5e-6 {
		return fmt.Errorf("%w: b_late(26, 1 s) = %.6f, want %.5f", errCheck, bLate26, goldenBLate26)
	}
	return nil
}

// checkDiskLoad verifies that no disk was asked for more than N_max
// fragments in the round.
func checkDiskLoad(rep *engine.RoundReport, nmax int) error {
	for d := range rep.Disks {
		if n := rep.Disks[d].Requests; n > nmax {
			return fmt.Errorf("%w: round %d disk %d served %d requests, N_max is %d",
				errCheck, rep.Round, d, n, nmax)
		}
	}
	return nil
}

// checkCapacity verifies that admission held the server to its
// capacity D·N_max.
func checkCapacity(active, capacity int) error {
	if active > capacity {
		return fmt.Errorf("%w: %d streams admitted, capacity %d", errCheck, active, capacity)
	}
	return nil
}

// checkLateFraction verifies the measured share of loaded disk-rounds
// that ran late against the analytic bound b_late(N_max, t).
func checkLateFraction(lateRounds, loadedRounds int64, bound float64) error {
	if loadedRounds == 0 {
		return fmt.Errorf("%w: no loaded disk-rounds measured", errCheck)
	}
	if f := float64(lateRounds) / float64(loadedRounds); f > bound {
		return fmt.Errorf("%w: late fraction %.6f (%d/%d disk-rounds) exceeds b_late %.6f",
			errCheck, f, lateRounds, loadedRounds, bound)
	}
	return nil
}

// checkTickets verifies the cluster accounting invariant: outstanding
// tickets equal the streams the engines hold.
func checkTickets(round, tickets, active int) error {
	if tickets != active {
		return fmt.Errorf("%w: after round %d the coordinator holds %d tickets but the engines hold %d streams",
			errCheck, round, tickets, active)
	}
	return nil
}

// checkSeq verifies that the journal head sequence never decreases.
func checkSeq(prev, cur uint64) error {
	if cur < prev {
		return fmt.Errorf("%w: journal head sequence fell from %d to %d", errCheck, prev, cur)
	}
	return nil
}

// checkWilson verifies that the analytic bound is not refuted by the
// simulation: the 95% Wilson lower bound of p̂_late(N) must not exceed
// b_late(N).
func checkWilson(n int, hits, trials int64, bound float64) error {
	lo, _ := dist.WilsonInterval(hits, trials, 1.96)
	if lo > bound {
		return fmt.Errorf("%w: N=%d Wilson lower bound %.6f of p̂_late (%d/%d) exceeds b_late %.6f",
			errCheck, n, lo, hits, trials, bound)
	}
	return nil
}

// checkDigests verifies that every run of a set produced the same
// simulated outcome.
func checkDigests(names []string, digests []uint64) error {
	for i := 1; i < len(digests); i++ {
		if digests[i] != digests[0] {
			return fmt.Errorf("%w: %s digest %016x differs from %s digest %016x",
				errCheck, names[i], digests[i], names[0], digests[0])
		}
	}
	return nil
}

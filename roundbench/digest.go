package main

import (
	"math"

	"mzqos/internal/cluster"
	"mzqos/internal/engine"
)

// digest is a running FNV-1a hash over 64-bit words of simulated
// outcomes. Host times never enter it, so a change that only alters speed
// leaves it unchanged, and any change to service (placement, sweep order,
// lateness, loss, retries, retirement) changes it.
type digest struct{ h uint64 }

func newDigest() digest { return digest{h: 14695981039346656037} }

func (d *digest) word(v uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= v & 0xff
		d.h *= 1099511628211
		v >>= 8
	}
}

func (d *digest) int(v int) { d.word(uint64(int64(v))) }

// round folds one engine round report: per disk the requests, late,
// lost, retries, down and faulty flags and the exact bits of the busy
// time, then the completed and evicted stream IDs.
func (d *digest) round(rep *engine.RoundReport) {
	d.int(rep.Round)
	d.int(len(rep.Disks))
	for i := range rep.Disks {
		dr := &rep.Disks[i]
		d.int(dr.Requests)
		d.int(dr.Late)
		d.int(dr.Lost)
		d.int(dr.Retries)
		d.word(math.Float64bits(dr.Busy))
		flags := 0
		if dr.Down {
			flags |= 1
		}
		if dr.Faulty {
			flags |= 2
		}
		d.int(flags)
	}
	d.int(rep.Glitches)
	d.int(len(rep.Completed))
	for _, id := range rep.Completed {
		d.word(uint64(id))
	}
	d.int(len(rep.Evicted))
	for _, id := range rep.Evicted {
		d.word(uint64(id))
	}
}

// clusterRound folds one coordinator round: every shard's report in shard
// order plus the round's migration outcome.
func (d *digest) clusterRound(rep *cluster.RoundReport) {
	d.int(rep.Round)
	for i := range rep.Shards {
		d.int(rep.Shards[i].Shard)
		d.round(&rep.Shards[i].Report)
	}
	d.int(rep.Migrated)
	d.int(rep.MigrationFailed)
	d.int(rep.FailedOver)
}

package synth

import (
	"fmt"
	"math/rand"

	"repro/internal/clicktable"
)

// Event is one timestamped click: user clicked item `Clicks` times on day
// Day (1-based). Event streams drive the incremental-detection extension
// and the campaign monitor.
type Event struct {
	Day    int
	UserID uint32
	ItemID uint32
	Clicks uint32
}

// EventStreamConfig controls how a generated dataset is unrolled into a
// day-stamped event stream.
type EventStreamConfig struct {
	// Days is the window length.
	Days int
	// AttackStartDay is the first day carrying attack clicks; attack
	// volume ramps linearly from that day through the end of the window
	// (the pre-campaign ramp of Fig 10).
	AttackStartDay int
	// Seed drives the deterministic shuffling and day assignment.
	Seed int64
}

// DefaultEventStreamConfig spreads traffic over 6 days with the attack
// starting on day 3, matching the campaign example's timeline.
func DefaultEventStreamConfig() EventStreamConfig {
	return EventStreamConfig{Days: 6, AttackStartDay: 3, Seed: 99}
}

// EventStream unrolls a dataset into a day-ordered stream of click events:
// background rows are split into single-day events uniformly across the
// window, attack rows are split across the ramp [AttackStartDay, Days] with
// volume growing toward the end. Aggregating the whole stream reproduces
// the dataset's click table exactly.
func EventStream(ds *Dataset, cfg EventStreamConfig) ([]Event, error) {
	if cfg.Days < 1 {
		return nil, fmt.Errorf("synth: Days must be ≥ 1, got %d", cfg.Days)
	}
	if cfg.AttackStartDay < 1 || cfg.AttackStartDay > cfg.Days {
		return nil, fmt.Errorf("synth: AttackStartDay %d outside [1,%d]", cfg.AttackStartDay, cfg.Days)
	}
	// The draws are seeded, so a first pass counts each day's events and a
	// second draws them again straight into their day's slots: a stable
	// counting scatter that holds the events once, in an array of their size.
	next := make([]int, cfg.Days+2)
	unroll(ds, cfg, func(e Event) { next[e.Day+1]++ })
	for d := 1; d < len(next); d++ {
		next[d] += next[d-1]
	}
	events := make([]Event, next[cfg.Days+1])
	unroll(ds, cfg, func(e Event) {
		events[next[e.Day]] = e
		next[e.Day]++
	})
	return events, nil
}

// unroll calls emit with EventStream's events in the order they are drawn:
// row by row, each row's chunks in turn.
func unroll(ds *Dataset, cfg EventStreamConfig, emit func(Event)) {
	rng := rand.New(rand.NewSource(cfg.Seed))

	rampDays := cfg.Days - cfg.AttackStartDay + 1
	// Linear ramp weights 1,2,...,rampDays over the attack window.
	rampTotal := rampDays * (rampDays + 1) / 2
	pickRampDay := func() int {
		r := rng.Intn(rampTotal)
		for d := 0; d < rampDays; d++ {
			r -= d + 1
			if r < 0 {
				return cfg.AttackStartDay + d
			}
		}
		return cfg.Days
	}

	ds.Table.Each(func(rec clicktable.Record) bool {
		isAttack := int(rec.UserID) >= ds.NumNormalUsers
		remaining := rec.Clicks
		// Split the row's clicks into up to `Days` day-chunks; most rows
		// are small and land in one or two events.
		for remaining > 0 {
			chunk := remaining
			if remaining > 1 {
				chunk = 1 + uint32(rng.Intn(int(remaining)))
			}
			remaining -= chunk
			day := 1 + rng.Intn(cfg.Days)
			if isAttack {
				day = pickRampDay()
			}
			emit(Event{Day: day, UserID: rec.UserID, ItemID: rec.ItemID, Clicks: chunk})
		}
		return true
	})
}

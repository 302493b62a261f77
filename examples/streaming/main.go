// Streaming detection: the paper's Section VIII future-work direction as a
// running application. Click events arrive continuously; the incremental
// detector re-screens cached groups and scopes fresh extraction to the
// users touched since the last sweep, so each sweep after the first costs
// a fraction of a full batch detection.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/clicktable"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	ds := synth.MustGenerate(synth.SmallConfig())

	// Split the dataset: background traffic is already in the warehouse,
	// the attack arrives as a live stream.
	background := clicktable.New(ds.Table.Len())
	var attack []clicktable.Record
	ds.Table.Each(func(r clicktable.Record) bool {
		if int(r.UserID) >= ds.NumNormalUsers {
			attack = append(attack, r)
		} else {
			background.AppendRecord(r)
		}
		return true
	})

	params := core.DefaultParams()
	params.THot = 400
	det, err := stream.New(background, params)
	if err != nil {
		log.Fatal(err)
	}

	// Initial sweep over clean traffic (full detection).
	res, err := det.SweepContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial sweep over %d background rows: %d groups (took %v)\n",
		background.Len(), len(res.Groups), res.Elapsed)

	// Stream the attack in five ticks, sweeping after each.
	chunk := (len(attack) + 4) / 5
	for tick := 0; tick < 5; tick++ {
		lo := tick * chunk
		hi := lo + chunk
		if hi > len(attack) {
			hi = len(attack)
		}
		det.AddBatch(attack[lo:hi])

		t0 := time.Now()
		res, err := det.SweepContext(ctx)
		if err != nil {
			log.Fatal(err)
		}
		incElapsed := time.Since(t0)

		ev := metrics.Evaluate(res, ds.Truth)
		fmt.Printf("tick %d: +%3d events | %d groups | recall %.2f precision %.2f | sweep %v\n",
			tick+1, hi-lo, len(res.Groups), ev.Recall, ev.Precision, incElapsed.Round(time.Microsecond))
	}

	// Compare the final incremental state against a from-scratch batch run.
	t0 := time.Now()
	full, err := det.FullDetectContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreference batch detection: %d groups in %v (incremental sweeps above "+
		"re-used cached groups + dirty-region scoping)\n",
		len(full.Groups), time.Since(t0).Round(time.Microsecond))
}

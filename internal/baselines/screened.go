// Package baselines provides the shared machinery of the paper's baseline
// detectors, most importantly the "+UI" wrapper: Section VI-B attaches
// RICD's suspicious-group screening module (User behavior check and Item
// behavior verification) to every baseline for a fair comparison, since the
// baselines only produce raw communities or dense blocks.
package baselines

import (
	"context"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/detect"
)

// Screened wraps any detector with RICD's screening module, reproducing the
// "<baseline>+UI" rows of Fig 8.
type Screened struct {
	// Inner produces the raw candidate groups.
	Inner detect.Detector
	// Params supplies the screening thresholds (T_hot, T_click, k₁, k₂, α).
	Params core.Params
}

// Name implements detect.Detector ("LPA+UI", "FRAUDAR+UI", ...).
func (s *Screened) Name() string { return s.Inner.Name() + "+UI" }

// Detect implements detect.Detector: run the inner detector, then screen
// its groups. Timing is split so Fig 8b can stack detection vs UI cost.
func (s *Screened) Detect(g *bipartite.Graph) (*detect.Result, error) {
	if err := s.Params.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	inner, err := s.Inner.Detect(g)
	if err != nil {
		return nil, err
	}
	detectDone := time.Now()

	hot := core.ComputeHotSet(g, s.Params.THot)
	// The background context never ends, so the error is always nil.
	groups, _ := core.ScreenGroupsCtx(context.Background(), g, inner.Groups, hot, s.Params, nil, nil)

	res := &detect.Result{Groups: groups}
	res.DetectElapsed = detectDone.Sub(start)
	res.ScreenElapsed = time.Since(detectDone)
	res.Elapsed = time.Since(start)
	return res, nil
}

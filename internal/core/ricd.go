package core

import (
	"context"
	"errors"
	"time"

	"repro/internal/bipartite"
	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// Variant selects how much of the RICD pipeline runs; the reduced variants
// are the ablation baselines of the paper's Table VI.
type Variant int

const (
	// VariantFull is the complete framework: group detection, user
	// behavior check, item behavior verification, identification.
	VariantFull Variant = iota
	// VariantUI removes the whole screening module (RICD-UI in Table VI):
	// raw extracted groups are reported as-is.
	VariantUI
	// VariantI removes only the item behavior verification step (RICD-I):
	// users are checked, hot items are excluded, but ordinary in-group
	// items skip the coincidence verification.
	VariantI
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case VariantUI:
		return "RICD-UI"
	case VariantI:
		return "RICD-I"
	default:
		return "RICD"
	}
}

// Detector is the RICD framework as a detect.Detector.
type Detector struct {
	Params  Params
	Variant Variant
	// Seeds optionally restricts group detection to the neighborhoods of
	// known abnormal nodes (Algorithm 2's auxiliary input).
	Seeds detect.Seeds
	// Obs, when non-nil, receives a stage trace (one ricd.detect span per
	// run, with the paper's Fig 8b detection/screening/identification
	// phase split as children) and pipeline metrics. Nil costs nothing.
	Obs *obs.Observer
}

// Name implements detect.Detector.
func (d *Detector) Name() string { return d.Variant.String() }

// Detect implements detect.Detector: it runs the three modules of Fig 4 in
// sequence. The input graph is not mutated. Detect cannot be cancelled —
// use DetectContext for bounded runs — but it shares DetectContext's panic
// isolation: a stage bug surfaces as a *detect.StageError, not a crash.
func (d *Detector) Detect(g *bipartite.Graph) (*detect.Result, error) {
	return d.DetectContext(context.Background(), g)
}

// DetectContext runs the pipeline under a context. Cancellation and
// deadline expiry are honored cooperatively at stage boundaries, between
// pruning rounds, inside the parallel pruning workers, and between
// screened groups, so a cancel lands within a fraction of a round. A
// cut-short run returns a non-nil, well-formed PARTIAL result — whatever
// groups the completed stages produced, with Result.Partial set and
// Result.StageReached naming the interrupted stage — together with the
// context's error. A stage panic is isolated the same way and returned as
// a *detect.StageError. Only parameter validation returns a nil result.
func (d *Detector) DetectContext(ctx context.Context, g *bipartite.Graph) (*detect.Result, error) {
	if err := d.Params.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p := d.Params
	o := d.Obs
	run := o.Root().Start("ricd.detect")
	run.Set("variant", d.Variant.String())
	start := time.Now()

	a := newAuditor(o)
	a.runStart(d.Variant.String(), g.LiveUsers(), g.LiveItems())
	var countersBefore map[string]int64
	if o.RunLedger() != nil {
		countersBefore = o.Metrics.Counters()
	}
	record := func(res *detect.Result, err error) {
		o.RecordRun("ricd.detect", run, res.Elapsed, len(res.Groups), len(res.Users()), len(res.Items()),
			res.Partial, res.StageReached, err, countersBefore)
	}

	var groups []detect.Group
	detectDone := start

	// stage runs fn as a named, panic-isolated, cancellable pipeline stage:
	// the fault-injection site "core.<name>" fires first, then ctx is
	// checked, then fn runs with panics converted to *detect.StageError.
	stage := func(name string, fn func() error) error {
		return detect.RunStage(name, func() error {
			faultinject.Hit("core." + name)
			if err := ctx.Err(); err != nil {
				return err
			}
			return fn()
		})
	}

	// degrade finalizes a cut-short run: the result carries whatever groups
	// the completed stages produced (the graceful-degradation contract).
	degrade := func(stageName string, err error) (*detect.Result, error) {
		res := &detect.Result{Groups: groups, Partial: true, StageReached: stageName}
		res.Elapsed = time.Since(start)
		if detectDone.After(start) {
			res.DetectElapsed = detectDone.Sub(start)
			res.ScreenElapsed = res.Elapsed - res.DetectElapsed
		} else {
			res.DetectElapsed = res.Elapsed
		}
		run.Set("partial", stageName)
		run.End()
		var se *detect.StageError
		if errors.As(err, &se) {
			o.Counter("ricd.stage_panics").Inc()
		} else {
			o.Counter("ricd.cancellations").Inc()
		}
		o.Counter("detect.partial").Inc()
		o.Counter("detect.stage_reached." + stageName).Inc()
		a.runEnd(len(res.Groups), len(res.Users()), len(res.Items()), stageName)
		record(res, err)
		return res, err
	}

	// Module 1: suspicious group detection. Hotness is classified on the
	// full input graph before pruning.
	dsp := run.Start("detection")
	var hot *HotSet
	if err := stage("hotset", func() error {
		hsp := dsp.Start("hotset")
		hot = ComputeHotSet(g, p.THot)
		hsp.SetInt("hot_items", int64(hot.Count()))
		hsp.End()
		return nil
	}); err != nil {
		dsp.End()
		return degrade("hotset", err)
	}

	var work *bipartite.Graph
	if err := stage("graph_generator", func() error {
		gsp := dsp.Start("graph_generator")
		work = GraphGenerator(g, d.Seeds)
		gsp.SetInt("live_users", int64(work.LiveUsers()))
		gsp.SetInt("live_items", int64(work.LiveItems()))
		gsp.SetInt("live_edges", int64(work.LiveEdges()))
		gsp.End()
		return nil
	}); err != nil {
		dsp.End()
		return degrade("graph_generator", err)
	}

	if err := stage("extraction", func() (eerr error) {
		groups, eerr = NearBicliqueExtractCtx(ctx, work, p, dsp, o)
		// Nothing after extraction reads the working copy: screening and
		// identification read g.
		work.Release()
		return eerr
	}); err != nil {
		dsp.End()
		return degrade("extraction", err)
	}
	dsp.End()
	detectDone = time.Now()

	// Module 2: suspicious group screening (variant-dependent) on the input
	// graph g. On cancellation mid-screening the groups fully screened so far
	// are kept: each is individually sound, the run is just incomplete.
	ssp := run.Start("screening")
	ssp.Set("mode", d.Variant.String())
	if err := stage("screening", func() (serr error) {
		switch d.Variant {
		case VariantUI:
			// No screening at all.
		case VariantI:
			groups, serr = screenUsersOnly(ctx, g, groups, hot, p, a)
		default:
			groups, serr = ScreenGroupsCtx(ctx, g, groups, hot, p, ssp, o)
		}
		return serr
	}); err != nil {
		ssp.End()
		return degrade("screening", err)
	}
	ssp.SetInt("groups_out", int64(len(groups)))
	ssp.End()

	// Module 3: identification — risk rankings, group scores and forensic
	// statistics, most suspicious group first.
	isp := run.Start("identification")
	res := &detect.Result{Groups: groups}
	if err := stage("identification", func() error {
		Identify(g, res)
		return nil
	}); err != nil {
		isp.End()
		return degrade("identification", err)
	}
	isp.End()
	EmitGroupVerdicts(o.Sink(), res.Groups)

	res.DetectElapsed = detectDone.Sub(start)
	res.ScreenElapsed = time.Since(detectDone)
	res.Elapsed = time.Since(start)
	run.SetInt("groups", int64(len(groups)))
	run.End()
	o.Counter("ricd.detections").Inc()
	o.Histogram("ricd.detect").Observe(res.Elapsed)
	o.Histogram("ricd.detect.detection").Observe(res.DetectElapsed)
	o.Histogram("ricd.detect.screening").Observe(res.ScreenElapsed)
	a.runEnd(len(res.Groups), len(res.Users()), len(res.Items()), "")
	record(res, nil)
	return res, nil
}

// screenUsersOnly is the RICD-I screening: user behavior check plus hot-item
// exclusion, without item behavior verification. Like ScreenGroupsCtx it
// checks ctx before each group (fault-injection site "core.screen.group")
// and on cancellation returns the groups screened so far with ctx's error.
func screenUsersOnly(ctx context.Context, g *bipartite.Graph, groups []detect.Group, hot *HotSet,
	p Params, a *auditor) ([]detect.Group, error) {

	m := getMarks()
	defer putMarks(m)
	var out []detect.Group
	for i, grp := range groups {
		faultinject.Hit("core.screen.group")
		if err := ctx.Err(); err != nil {
			return out, err
		}
		users := userBehaviorCheck(g, grp, hot, p, a, i+1, m)
		if len(users) < p.K1 {
			continue
		}
		var items []bipartite.NodeID
		for _, v := range grp.Items {
			if hot.IsHot(v) {
				a.dropItemHot(i+1, v)
			} else {
				items = append(items, v)
			}
		}
		if len(items) < p.K2 {
			continue
		}
		out = append(out, detect.Group{Users: users, Items: items})
	}
	return out, nil
}

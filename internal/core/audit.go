package core

import (
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/detect"
	"repro/internal/obs"
)

// auditor threads the structured audit trail (obs.EventSink) through the
// pipeline internals. The nil *auditor is the disabled path: every method
// returns before building its event, so instrumented loops pay one nil
// check and zero allocations when auditing is off — the same contract as
// the nil observer.
//
// Square pruning and screening run on compacted component graphs whose
// vertex IDs are local (bipartite.CompactComponent); forShard derives a
// translating auditor from the shard's local→original maps, so every
// emitted event carries IDs in the original graph's namespace.
type auditor struct {
	sink   *obs.EventSink
	shard  int                // 1-based shard index, 0 outside shards
	userOf []bipartite.NodeID // local → original user IDs; nil outside shards
	itemOf []bipartite.NodeID
}

// newAuditor returns the observer's auditor, or nil when no event sink is
// attached (the free default).
func newAuditor(o *obs.Observer) *auditor {
	if s := o.Sink(); s != nil {
		return &auditor{sink: s}
	}
	return nil
}

// forShard returns an auditor stamping events with the shard index (0
// stamps none, as screening does) and translating compact-graph IDs back
// to original IDs.
func (a *auditor) forShard(shard int, userOf, itemOf []bipartite.NodeID) *auditor {
	if a == nil {
		return nil
	}
	return &auditor{sink: a.sink, shard: shard, userOf: userOf, itemOf: itemOf}
}

func (a *auditor) translate(side bipartite.Side, id bipartite.NodeID) bipartite.NodeID {
	if side == bipartite.UserSide {
		if a.userOf != nil {
			return a.userOf[id]
		}
		return id
	}
	if a.itemOf != nil {
		return a.itemOf[id]
	}
	return id
}

// runStart brackets the opening of one detection run.
func (a *auditor) runStart(variant string, users, items int) {
	if a == nil {
		return
	}
	a.sink.Emit(obs.Event{Type: obs.EventRunStart, Reason: variant, Users: users, Items: items})
}

// runEnd brackets the close of one run; partialStage is "" for a complete
// run and the interrupted stage's name otherwise.
func (a *auditor) runEnd(groups, users, items int, partialStage string) {
	if a == nil {
		return
	}
	e := obs.Event{Type: obs.EventRunEnd, Groups: groups, Users: users, Items: items}
	if partialStage != "" {
		e.Reason = "partial:" + partialStage
	}
	a.sink.Emit(e)
}

// coreRemoval records one CorePruning removal: the vertex's live degree
// fell below the Lemma 1 bound (⌈α·k₂⌉ for users, ⌈α·k₁⌉ for items).
func (a *auditor) coreRemoval(side bipartite.Side, id bipartite.NodeID, round, deg, minDeg int) {
	if a == nil {
		return
	}
	a.sink.Emit(obs.Event{
		Type:   obs.EventPruneRemove,
		Side:   side.String(),
		ID:     uint32(a.translate(side, id)),
		Round:  round,
		Shard:  a.shard,
		Reason: "core.degree",
		Stat:   fmt.Sprintf("deg=%d min=%d", deg, minDeg),
	})
}

// squareRemovals records one round's SquarePruning victims: each vertex
// had fewer than k (α,·)-neighbors, i.e. fewer than k counterparts sharing
// at least `need` common neighbors with it (Lemma 2).
func (a *auditor) squareRemovals(side bipartite.Side, victims []bipartite.NodeID, round, need, k int) {
	if a == nil || len(victims) == 0 {
		return
	}
	stat := fmt.Sprintf("ak_neighbors<%d need=%d", k, need)
	for _, id := range victims {
		a.sink.Emit(obs.Event{
			Type:   obs.EventPruneRemove,
			Side:   side.String(),
			ID:     uint32(a.translate(side, id)),
			Round:  round,
			Shard:  a.shard,
			Reason: "square.neighbors",
			Stat:   stat,
		})
	}
}

// shardDone marks one component shard's pruning boundary.
func (a *auditor) shardDone(shard, users, items, rounds, removed int) {
	if a == nil {
		return
	}
	a.sink.Emit(obs.Event{
		Type:  obs.EventShardDone,
		Shard: shard,
		Users: users,
		Items: items,
		Round: rounds,
		Stat:  fmt.Sprintf("removed=%d", removed),
	})
}

// Screening drops. group is the 1-based candidate-group index (extraction
// order, before the final repartition renumbers survivors).

// dropUserNoAttackEdge: the user behavior check found no in-group ordinary
// item clicked ≥ T_click times (Fig 5 condition (1)).
func (a *auditor) dropUserNoAttackEdge(group int, u bipartite.NodeID, maxOrdinary, tClick uint32) {
	if a == nil {
		return
	}
	a.sink.Emit(obs.Event{
		Type:   obs.EventScreenDrop,
		Side:   "user",
		ID:     uint32(a.translate(bipartite.UserSide, u)),
		Group:  group,
		Reason: "user.no_attack_edge",
		Stat:   fmt.Sprintf("max_ordinary_clicks=%d t_click=%d", maxOrdinary, tClick),
	})
}

// dropUserNoVerifiedTarget: every item the user supported failed item
// behavior verification, so no attack target remains for them.
func (a *auditor) dropUserNoVerifiedTarget(group int, u bipartite.NodeID) {
	if a == nil {
		return
	}
	a.sink.Emit(obs.Event{
		Type:   obs.EventScreenDrop,
		Side:   "user",
		ID:     uint32(a.translate(bipartite.UserSide, u)),
		Group:  group,
		Reason: "user.no_verified_target",
	})
}

// dropItemHot: hot items are the ridden victims, never targets (Fig 6).
func (a *auditor) dropItemHot(group int, v bipartite.NodeID) {
	if a == nil {
		return
	}
	a.sink.Emit(obs.Event{
		Type:   obs.EventScreenDrop,
		Side:   "item",
		ID:     uint32(a.translate(bipartite.ItemSide, v)),
		Group:  group,
		Reason: "item.hot",
	})
}

// dropItemGroupDissolved: the user behavior check rejected every user in
// the candidate group, so its items fall with no surviving clickers to
// verify them against.
func (a *auditor) dropItemGroupDissolved(group int, v bipartite.NodeID) {
	if a == nil {
		return
	}
	a.sink.Emit(obs.Event{
		Type:   obs.EventScreenDrop,
		Side:   "item",
		ID:     uint32(a.translate(bipartite.ItemSide, v)),
		Group:  group,
		Reason: "item.group_dissolved",
	})
}

// dropItemSupporters: the clicked-user-set coincidence test failed — fewer
// than ⌈α·k₁⌉ surviving users clicked the item ≥ T_click times (Fig 6).
func (a *auditor) dropItemSupporters(group int, v bipartite.NodeID, supporters, need int) {
	if a == nil {
		return
	}
	a.sink.Emit(obs.Event{
		Type:   obs.EventScreenDrop,
		Side:   "item",
		ID:     uint32(a.translate(bipartite.ItemSide, v)),
		Group:  group,
		Reason: "item.supporters",
		Stat:   fmt.Sprintf("supporters=%d need=%d", supporters, need),
	})
}

// EmitGroupVerdicts records the final verdicts of a run on sink (nil: no-op):
// one group.verdict event per identified group, in reported order, with its
// risk score and forensic evidence — the record an analyst reviews before
// acting. Batch detections and stream sweeps both report through here.
func EmitGroupVerdicts(sink *obs.EventSink, groups []detect.Group) {
	if sink == nil {
		return
	}
	for i, grp := range groups {
		sink.Emit(obs.Event{
			Type:  obs.EventGroupVerdict,
			Group: i + 1,
			Users: len(grp.Users),
			Items: len(grp.Items),
			Score: grp.Score,
			Stat: fmt.Sprintf("density=%.3f mean_edge_clicks=%.1f outside_share=%.3f",
				grp.Density, grp.MeanEdgeClicks, grp.OutsideShare),
		})
	}
}

// widenEvents records the feedback loop's parameter relaxations: one event
// per knob that moved, old→new (Fig 7's adjustment step).
func (a *auditor) widenEvents(iteration int, old, relaxed Params) {
	if a == nil {
		return
	}
	emit := func(knob, oldV, newV string) {
		a.sink.Emit(obs.Event{
			Type:   obs.EventFeedbackWiden,
			Round:  iteration,
			Reason: knob,
			Old:    oldV,
			New:    newV,
		})
	}
	if old.TClick != relaxed.TClick {
		emit("t_click", fmt.Sprintf("%d", old.TClick), fmt.Sprintf("%d", relaxed.TClick))
	}
	if old.Alpha != relaxed.Alpha {
		emit("alpha", fmt.Sprintf("%.2f", old.Alpha), fmt.Sprintf("%.2f", relaxed.Alpha))
	}
	if old.K1 != relaxed.K1 {
		emit("k1", fmt.Sprintf("%d", old.K1), fmt.Sprintf("%d", relaxed.K1))
	}
	if old.K2 != relaxed.K2 {
		emit("k2", fmt.Sprintf("%d", old.K2), fmt.Sprintf("%d", relaxed.K2))
	}
}

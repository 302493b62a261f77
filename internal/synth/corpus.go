package synth

// EquivCorpus returns the shared ≥ 20-workload seeded corpus every
// golden-oracle equivalence harness runs against — the sharded-pipeline
// harness (internal/core), the delta-maintenance and observation
// harnesses (internal/stream), and the query-serving harness (facade).
// One corpus keeps the oracles honest about the same inputs: a workload
// shape added here is exercised end to end by every equivalence proof.
//
// Shapes vary deliberately: small marketplaces (2k users, 400 items) with
// varied attack-group counts and near-biclique participation, plus tiny
// marketplaces (600 users, 150 items) whose residuals shatter into several
// small components — and some of which detect nothing at all, so the
// all-clean run is a corpus member, not a special case.
func EquivCorpus() []Config {
	var cfgs []Config
	for seed := int64(1); seed <= 8; seed++ {
		c := SmallConfig()
		c.Seed = seed
		c.Attack.Groups = 2 + int(seed%3)
		c.Attack.Participation = 0.85 + 0.05*float64(seed%3)
		cfgs = append(cfgs, c)
	}
	for seed := int64(100); seed < 112; seed++ {
		c := SmallConfig()
		c.Seed = seed
		c.NumUsers = 600
		c.NumItems = 150
		c.Attack.Groups = 2 + int(seed%4)
		c.Attack.AttackersMin = 10
		c.Attack.AttackersMax = 14
		c.Attack.TargetsMin = 10
		c.Attack.TargetsMax = 12
		c.Attack.HotPoolSize = 6
		c.Confusers.GroupBuys = 2
		cfgs = append(cfgs, c)
	}
	return cfgs
}

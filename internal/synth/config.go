// Package synth generates synthetic e-commerce click workloads with
// implanted "Ride Item's Coattails" attacks.
//
// The paper's evaluation ran on a proprietary Taobao click table
// (20M users, 4M items, 90M edges). This package replaces it with a seeded
// generator whose two halves mirror the paper's own analysis (Section IV):
//
//   - Background traffic: heavy-tailed item popularity (Pareto principle —
//     ~20% of items draw ~80% of clicks, Fig 2a) and heavy-tailed user
//     activity (Fig 2b), calibrated so user-side statistics land near the
//     paper's Table II (Avg_clk ≈ 11, Avg_cnt ≈ 4).
//   - Attack traffic: crowd workers following the paper's derived optimal
//     strategy (Eq 2-3): click each assigned hot item a small number of
//     times (average < 4), spend the click budget on the target items
//     (each ≥ T_click), and add light camouflage clicks on random normal
//     items. Target items additionally attract a trickle of organic
//     clicks (challenge (4) of Section I).
//
// Every generated dataset carries complete ground-truth labels, replacing
// the paper's expert labeling.
package synth

// Config controls dataset generation. The zero value is not useful; start
// from DefaultConfig.
type Config struct {
	// Seed drives all randomness; equal configs generate equal datasets.
	Seed int64

	// NumUsers and NumItems size the normal population. Attackers and
	// target items are appended after these ID ranges, so normal users
	// have IDs < NumUsers and normal items have IDs < NumItems.
	NumUsers int
	NumItems int

	// UserActivityAlpha is the Pareto tail exponent of per-user click
	// event counts. Smaller values mean heavier tails. Must be > 1.
	UserActivityAlpha float64
	// UserActivityMin is the minimum number of click events per user.
	UserActivityMin float64

	// ItemZipfS and ItemZipfV parametrize the Zipf item-popularity
	// distribution P(rank k) ∝ (v+k)^(-s).
	ItemZipfS float64
	ItemZipfV float64

	// Confusers configures the innocent heavy-click populations that make
	// detection non-trivial.
	Confusers ConfuserConfig

	// Attack configures the implanted groups.
	Attack AttackConfig
}

// ConfuserConfig describes innocent behaviors that superficially resemble
// crowd-worker clicks — the reason naive screening is not enough on real
// data. Confusers are NOT labeled abnormal; detectors that flag them pay in
// precision.
type ConfuserConfig struct {
	// FanFraction of normal users are loyal fans: each picks a few
	// favorite ordinary items and re-clicks them heavily (re-buys,
	// wishlist revisits).
	FanFraction float64
	// FanItemsMax bounds a fan's favorite-item count (≥ 1).
	FanItemsMax int
	// FanClicksMin/Max bound clicks per favorite item.
	FanClicksMin, FanClicksMax int

	// GroupBuys is the number of group-buying events: a crowd of normal
	// users simultaneously hammering ONE item (the benign phenomenon
	// desired property 4b protects via the k₂ group-size bound).
	GroupBuys int
	// GroupBuyUsersMin/Max bound the crowd size per event.
	GroupBuyUsersMin, GroupBuyUsersMax int
	// GroupBuyClicksMin/Max bound clicks per participant.
	GroupBuyClicksMin, GroupBuyClicksMax int
}

// AttackConfig controls the "Ride Item's Coattails" attack injector.
type AttackConfig struct {
	// Groups is the number of independent attack groups to implant.
	Groups int

	// AttackersMin/Max bound the crowd-worker head count per group.
	AttackersMin, AttackersMax int
	// TargetsMin/Max bound the number of target items per group.
	TargetsMin, TargetsMax int
	// HotMin/Max bound the number of hot items each group rides.
	HotMin, HotMax int

	// TargetClicksMin/Max bound an attacker's clicks on one target item
	// (the paper's analysis: spend the budget here; compare T_click=12).
	TargetClicksMin, TargetClicksMax int
	// HotClicksMax bounds an attacker's clicks on one hot item (paper:
	// average < 4; optimal strategy is 1).
	HotClicksMax int

	// CamouflageItemsMin/Max bound the random normal items an attacker
	// clicks to disguise, with 1..CamouflageClicksMax clicks each.
	CamouflageItemsMin, CamouflageItemsMax int
	CamouflageClicksMax                    int

	// Participation is the probability an attacker clicks any given
	// target of its group; < 1 makes groups near-bicliques rather than
	// perfect bicliques.
	Participation float64

	// OrganicClickers is the expected number of normal users who click a
	// target item organically (the "normal users attracted by deceptive
	// items" of Section I).
	OrganicClickers int

	// AgencyLoyalty is the probability that an attacker account belongs
	// to its group's dominant crowdsourcing agency; the case study
	// (Section VII) reports ≥ 85% of caught accounts are associated.
	AgencyLoyalty float64

	// HotPoolSize is how many of the most-clicked items attacks may ride.
	// Keeping it small guarantees ridden items are genuinely hot under
	// the experiments' T_hot settings; 0 means max(3×HotMax, 12).
	HotPoolSize int

	// CampaignGroups of the Groups are mega-campaigns: crews of about
	// CampaignAttackers accounts whose targets accumulate enough fake
	// clicks to cross a low hot threshold. They reproduce the paper's
	// Fig 9e observation that T_hot = 1,000 misclassifies heavily
	// attacked targets as hot items and loses their groups.
	CampaignGroups    int
	CampaignAttackers int
}

// DefaultConfig is the paper's dataset at 1:1000 scale: 20k users, 4k items,
// ~90k edges, ~220k clicks, with 8 implanted attack groups.
func DefaultConfig() Config {
	return Config{
		Seed:              1,
		NumUsers:          20000,
		NumItems:          4000,
		UserActivityAlpha: 1.9,
		UserActivityMin:   4.0,
		ItemZipfS:         1.15,
		ItemZipfV:         3.0,
		Confusers: ConfuserConfig{
			FanFraction:       0.03,
			FanItemsMax:       3,
			FanClicksMin:      8,
			FanClicksMax:      18,
			GroupBuys:         5,
			GroupBuyUsersMin:  30,
			GroupBuyUsersMax:  60,
			GroupBuyClicksMin: 8,
			GroupBuyClicksMax: 16,
		},
		Attack: AttackConfig{
			Groups: 8,
			// Wide head-count spread: small crews barely above k₁ up to
			// heavy campaigns whose targets accumulate enough clicks to
			// cross a low T_hot — the effect behind Fig 9e, where a
			// too-low hot threshold misclassifies heavily-attacked
			// targets as hot items and loses their groups.
			AttackersMin:        8,
			AttackersMax:        55,
			TargetsMin:          12,
			TargetsMax:          18,
			HotMin:              2,
			HotMax:              3,
			TargetClicksMin:     8,
			TargetClicksMax:     24,
			HotClicksMax:        3,
			CamouflageItemsMin:  2,
			CamouflageItemsMax:  5,
			CamouflageClicksMax: 2,
			Participation:       0.95,
			OrganicClickers:     6,
			AgencyLoyalty:       0.88,
			CampaignGroups:      1,
			CampaignAttackers:   110,
		},
	}
}

// SmallConfig is a fast configuration for unit tests and examples: 1:10 of
// DefaultConfig with 3 attack groups. Group head counts and click budgets
// are trimmed so that attack-inflated target items stay clearly below the
// hot-item range of this smaller marketplace (use THot ≈ 400 with it).
func SmallConfig() Config {
	c := DefaultConfig()
	c.NumUsers = 2000
	c.NumItems = 400
	c.Attack.Groups = 3
	c.Attack.AttackersMin = 13
	c.Attack.AttackersMax = 18
	c.Attack.TargetsMin = 12
	c.Attack.TargetClicksMin = 12 // keep unit-test detection robust
	c.Attack.TargetClicksMax = 20
	c.Attack.HotPoolSize = 8
	c.Attack.CampaignGroups = 0
	return c
}

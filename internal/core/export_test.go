package core

// SetRankHook installs (nil: removes) the hook RankResult calls once per
// execution, for tests outside this package that count ranking passes.
func SetRankHook(h func()) { testRankHook = h }

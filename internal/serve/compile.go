package serve

import (
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/detect"
)

// Compile builds an Index from a detection result and the click graph it
// was computed against. A result that arrives unidentified (hand-built, or
// cut short) is identified against g first (core.Identify); the results
// core.Detector and stream.Detector return arrive identified against the
// graph they examined and are indexed as they are. The index references the
// result's own group and ranking slices without copying: do not mutate the
// result afterwards.
func Compile(g *bipartite.Graph, res *detect.Result, thot uint64, tclick uint32) *Index {
	core.Identify(g, res)
	return Build(Data{
		Groups:      res.Groups,
		RankedUsers: res.RankedUsers,
		RankedItems: res.RankedItems,
		THot:        thot,
		TClick:      tclick,
		Partial:     res.Partial,
	})
}

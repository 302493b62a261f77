package bipartite

// For the external tests in tograph_test.go, which build graphs through
// clicktable, an importer of this package.
var GraphDiff = graphDiff

const RaceEnabled = raceEnabled

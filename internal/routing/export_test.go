package routing

// MatchSweep exposes the full-sweep differential check to the external test
// package, which can import the scenario layer for real snapshots.
var MatchSweep = matchSweep

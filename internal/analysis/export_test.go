package analysis

// LiveIn exposes the per-block live-in sets SSA construction prunes phis
// with, so the external tests can check them.
var LiveIn = (*CFG).liveIn

package shard

// Report describes how the scatter-gather coordinator executed one
// query: how many shards the planner selected and how many the extent
// pruner skipped. Every planned shard runs to completion, so a result
// always carries every planned shard's contribution.
type Report struct {
	// Planned is the number of shards the planner fanned out to.
	Planned int `json:"planned"`
	// Pruned is the number of shards skipped because their observed
	// time extent cannot overlap the query interval. Pruning is
	// conservative (extents only ever grow), so a pruned shard cannot
	// hold a match.
	Pruned int `json:"pruned"`
}

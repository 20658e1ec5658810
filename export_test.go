package temporalir

// EngineFromCollectionN is EngineFromCollection over n stores, so the
// external tests can run one behavioural suite at several widths.
func EngineFromCollectionN(c *Collection, m Method, opts Options, n int) (*Engine, error) {
	return engineFromCollection(c, m, opts, ShardedOptions{Shards: n})
}

// OverlapScore is the ranked score written out for the test oracles:
// the share of q's time points that o covers, counted exactly in uint64
// so a 2^64-point interval does not wrap.
func OverlapScore(o, q Interval) float64 {
	lo, hi := max(o.Start, q.Start), min(o.End, q.End)
	if lo > hi {
		return 0
	}
	return (float64(uint64(hi-lo)) + 1) / (float64(uint64(q.End-q.Start)) + 1)
}

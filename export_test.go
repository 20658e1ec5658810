package temporalir

// EngineFromCollectionN is EngineFromCollection over n stores, so the
// external tests can run one behavioural suite at several widths.
func EngineFromCollectionN(c *Collection, m Method, opts Options, n int) (*Engine, error) {
	return engineFromCollection(c, m, opts, ShardedOptions{Shards: n})
}

package temporalir

// Compatibility spellings kept for callers written against the
// two-type API, which had a separate sharded engine type beside Engine.

// Sharded is the former name of an engine over several stores. Every
// engine is one now, so it is Engine.
type Sharded = Engine

// RefreshScorer does nothing: ranked search scores by temporal overlap
// alone and reads no corpus statistics, so there is no scorer to
// refresh.
//
// Deprecated: kept only because benchmark/ still calls it; it goes with
// ROADMAP item 8(ii).
func (e *Engine) RefreshScorer() {}

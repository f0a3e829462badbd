package compile

import "github.com/dsn2015/vdbench/internal/svclang"

// AnalyzeExhaustive derives svc's ground truth with the unpruned
// reference search over this engine's VM probe. It bypasses the oracle
// cache on purpose: through Analyze the cache would answer with the
// pruned derivation and the differential check would prove nothing.
func (e *Engine) AnalyzeExhaustive(svc *svclang.Service) ([]svclang.GroundTruth, error) {
	return svclang.AnalyzeProbingExhaustive(svc, e.probe)
}

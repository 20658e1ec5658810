package temporalir

import (
	"fmt"

	"repro/internal/route"
)

// DefaultRoutedMethods is the sub-build set the Routed meta-method
// keeps when Options.RoutedMethods is nil: the flat tIF (wins the
// rare-element regime), the merge and hybrid tIF+HINT variants (win
// large extents / dense candidates), and the performance irHINT (the
// paper's overall winner). Four builds cover the paper's regime
// crossovers without quadrupling memory on methods that never win.
func DefaultRoutedMethods() []Method {
	return []Method{TIF, TIFHintMerge, TIFHintSlicing, IRHintPerf}
}

// classOf maps a Method onto the router's family classes used to seed
// the cost model.
func classOf(m Method) (route.Class, error) {
	switch m {
	case TIF:
		return route.ClassTIF, nil
	case TIFSlicing:
		return route.ClassSlicing, nil
	case TIFSharding:
		return route.ClassSharding, nil
	case TIFHintBinary:
		return route.ClassBinary, nil
	case TIFHintMerge:
		return route.ClassMerge, nil
	case TIFHintSlicing:
		return route.ClassHybrid, nil
	case IRHintPerf:
		return route.ClassPerf, nil
	case IRHintSize:
		return route.ClassSize, nil
	case Routed:
		return 0, fmt.Errorf("temporalir: routed method cannot route to itself")
	default:
		return 0, fmt.Errorf("temporalir: unknown method %q", m)
	}
}

// newRoutedIndex builds every configured sub-index over the collection
// and wires them into the adaptive router.
func newRoutedIndex(c *Collection, opts Options) (Index, error) {
	ms := opts.RoutedMethods
	if len(ms) == 0 {
		ms = DefaultRoutedMethods()
	}
	names := make([]string, len(ms))
	classes := make([]route.Class, len(ms))
	subs := make([]route.Subindex, len(ms))
	seen := make(map[Method]bool, len(ms))
	for i, m := range ms {
		cl, err := classOf(m)
		if err != nil {
			return nil, err
		}
		if seen[m] {
			return nil, fmt.Errorf("temporalir: duplicate routed method %q", m)
		}
		seen[m] = true
		sub, err := NewIndex(m, c, opts)
		if err != nil {
			return nil, err
		}
		names[i], classes[i], subs[i] = string(m), cl, sub
	}
	return route.NewIndex(names, classes, subs, c), nil
}

package lint

// All returns the full genielint suite in the order diagnostics are
// attributed when several fire on one line.
func All() []*Analyzer {
	return []*Analyzer{GoroLeak, LockScope, NetDeadline, ObsNaming}
}

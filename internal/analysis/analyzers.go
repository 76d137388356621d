package analysis

// DefaultAnalyzers returns the production simlint suite, configured with
// the checked-in lockorder.conf and the default virtual-time package set.
func DefaultAnalyzers() []*Analyzer {
	cfg := DefaultLockConfig()
	return []*Analyzer{
		NewVClock(DefaultVirtualTimePackages),
		NewLockOrder(cfg),
		NewGuarded(),
		NewWakeup(cfg),
		NewDetRand(),
		NewDurable(DefaultDurableScope),
		NewHotAlloc(),
		NewDetMap(DefaultDetMapSinks),
	}
}

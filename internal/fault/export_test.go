package fault

// Windows returns the resolved windows in time order, for the external
// tests.
func (b *Brownouts) Windows() []Window { return b.windows }

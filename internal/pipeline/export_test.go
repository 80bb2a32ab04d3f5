package pipeline

// StateEntries counts the generator's non-zero counters and overflow
// entries: the pairs its encoded state holds.
func (g *LoadAddrGen) StateEntries() int { return g.nonZero() + len(g.overflow) }

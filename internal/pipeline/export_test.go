package pipeline

// StateEntries counts the generator's non-zero counters and overflow
// entries: the pairs its encoded state holds. Counters live in pages, and
// a page that never executed holds none.
func (g *LoadAddrGen) StateEntries() int {
	n := len(g.overflow)
	for _, p := range g.pages {
		if p == nil {
			continue
		}
		for _, c := range p {
			if c != 0 {
				n++
			}
		}
	}
	return n
}

package routing

import "dragonvar/internal/topology"

// Arena is the flat candidate layout of a resolved flow list, built once
// per resolve. It holds the paths' links twice, each order once:
//
//   - Hop-major: the paths ordered by descending hop count (a stable
//     counting sort), with hop h of every path that has one stored
//     contiguously, as indices into Distinct. PathSums walks it, and Hop
//     reads one path's links in link order.
//   - Link-major: every distinct link once (Distinct, in first-touch
//     order), with the paths that cross it — one entry per crossing, in
//     arena order — at Crossing[CrossEnd[u-1]:CrossEnd[u]]. Summing a
//     per-path value over those entries adds what a path-by-path scatter
//     onto the link would add, in the same order.
//
// Paths are numbered in arena order, flow by flow: flow i's paths are
// j in [FlowEnd[i-1], FlowEnd[i]) (from 0 for i == 0), path j has
// PathEnd[j]-PathEnd[j-1] hops, and Minimal[j] mirrors Path.Minimal.
type Arena struct {
	PathEnd []int32
	FlowEnd []int32
	Minimal []bool

	Distinct []topology.LinkID
	CrossEnd []int32
	Crossing []int32

	// Rank[j] is path j's position in hop order, where PathSums puts its sum.
	Rank []int32
	// hop h of the first hopEnd[h]-hopEnd[h-1] paths in hop order is
	// hop[hopEnd[h-1]:hopEnd[h]]
	hop    []int32
	hopEnd []int32
}

// NewArena flattens each flow's candidate paths, in flow order, into an
// Arena. index is the caller's scratch, one entry per link of the machine,
// every entry -1; NewArena leaves it that way.
func NewArena(flows [][]Path, index []int32) *Arena {
	a := &Arena{FlowEnd: make([]int32, len(flows))}
	nPaths, maxHops := 0, 0
	for i, paths := range flows {
		nPaths += len(paths)
		for _, p := range paths {
			maxHops = max(maxHops, len(p.Links))
		}
		a.FlowEnd[i] = int32(nPaths)
	}
	a.PathEnd = make([]int32, 0, nPaths)
	a.Minimal = make([]bool, 0, nPaths)
	// byHops[h] counts the paths of h hops, then becomes the hop-order
	// position of the next one; crossings[u] counts Distinct[u]'s
	// crossings, then becomes the start of its bucket
	byHops := make([]int32, maxHops+1)
	var crossings []int32
	nLinks := int32(0)
	for _, paths := range flows {
		for _, p := range paths {
			for _, l := range p.Links {
				if index[l] < 0 {
					index[l] = int32(len(a.Distinct))
					a.Distinct = append(a.Distinct, l)
					crossings = append(crossings, 0)
				}
				crossings[index[l]]++
			}
			nLinks += int32(len(p.Links))
			a.PathEnd = append(a.PathEnd, nLinks)
			a.Minimal = append(a.Minimal, p.Minimal)
			byHops[len(p.Links)]++
		}
	}
	var sum int32
	for u, c := range crossings {
		crossings[u] = sum
		sum += c
	}
	a.CrossEnd = crossings

	// hop h is held by every path of more than h hops, which come first
	// in hop order
	a.hopEnd = make([]int32, maxHops)
	pos, longer := int32(0), int32(0)
	for h := maxHops; h >= 0; h-- {
		c := byHops[h]
		byHops[h] = pos
		pos += c
		if h > 0 {
			longer += c
			a.hopEnd[h-1] = longer
		}
	}
	for h := 1; h < maxHops; h++ {
		a.hopEnd[h] += a.hopEnd[h-1]
	}

	// fill both orders in one arena-order walk: each bucket start advances
	// to its bucket's end
	a.Rank = make([]int32, nPaths)
	a.Crossing = make([]int32, nLinks)
	a.hop = make([]int32, nLinks)
	j := int32(0)
	for _, paths := range flows {
		for _, p := range paths {
			q := byHops[len(p.Links)]
			byHops[len(p.Links)]++
			a.Rank[j] = q
			hopStart := int32(0)
			for h, l := range p.Links {
				u := index[l]
				a.Crossing[a.CrossEnd[u]] = j
				a.CrossEnd[u]++
				a.hop[hopStart+q] = u
				hopStart = a.hopEnd[h]
			}
			j++
		}
	}

	for _, l := range a.Distinct {
		index[l] = -1
	}
	return a
}

// Hop returns the index into Distinct of path j's hop h.
func (a *Arena) Hop(j, h int) int32 {
	start := int32(0)
	if h > 0 {
		start = a.hopEnd[h-1]
	}
	return a.hop[start+a.Rank[j]]
}

// PathSums writes every path's sum of perLink (indexed like Distinct) over
// its links to sums[Rank[j]]; sums needs one entry per path. Each path adds
// its own links in link order starting from 0, so every sum has the bits of
// a path-by-path loop; only the interleaving across paths differs.
func (a *Arena) PathSums(perLink, sums []float64) {
	sums = sums[:len(a.Rank)]
	clear(sums)
	start := int32(0)
	for _, end := range a.hopEnd {
		hop := a.hop[start:end]
		s := sums[:len(hop)]
		for q, u := range hop {
			s[q] += perLink[u]
		}
		start = end
	}
}

// Scratch is a split's working memory, one entry per distinct link and one
// per path of an Arena. The caller keeps one and reuses it, so warm splits
// allocate nothing.
type Scratch struct {
	Link, Path []float64
}

// Fit sizes s for a, allocating only for an arena larger than any before.
func (s *Scratch) Fit(a *Arena) {
	s.Link = fit(s.Link, len(a.Distinct))
	s.Path = fit(s.Path, len(a.Rank))
}

func fit(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

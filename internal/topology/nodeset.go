package topology

import "math/bits"

// NodeSet is a dense set of node IDs, one bit per node of a machine.
// Each visits the members in ascending order, so callers that need a
// deterministic order never sort. A nil *NodeSet is the empty set for
// every read.
type NodeSet struct{ words []uint64 }

// NewNodeSet returns an empty set with room for every node of d.
func NewNodeSet(d *Dragonfly) *NodeSet {
	return &NodeSet{words: make([]uint64, (d.Cfg.NumNodes()+63)/64)}
}

// Add inserts node n.
func (s *NodeSet) Add(n NodeID) { s.words[n>>6] |= 1 << (n & 63) }

// Has reports whether node n is in the set.
func (s *NodeSet) Has(n NodeID) bool {
	return s != nil && int(n>>6) < len(s.words) && s.words[n>>6]&(1<<(n&63)) != 0
}

// Len returns the number of nodes in the set.
func (s *NodeSet) Len() int {
	if s == nil {
		return 0
	}
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Union adds every node of o (which may be nil) to s.
func (s *NodeSet) Union(o *NodeSet) {
	if o != nil {
		for i, w := range o.words {
			s.words[i] |= w
		}
	}
}

// Each calls f for every node in the set, in ascending order.
func (s *NodeSet) Each(f func(NodeID)) {
	if s == nil {
		return
	}
	for i, w := range s.words {
		for w != 0 {
			f(NodeID(i<<6 | bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

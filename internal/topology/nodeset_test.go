package topology

import (
	"math/rand"
	"sort"
	"testing"
)

func TestNodeSetMatchesMapAndIteratesAscending(t *testing.T) {
	d := mustNew(t, Small())
	r := rand.New(rand.NewSource(7))
	s := NewNodeSet(d)
	want := map[NodeID]bool{}
	for i := 0; i < 300; i++ {
		n := NodeID(r.Intn(d.Cfg.NumNodes()))
		s.Add(n)
		want[n] = true
	}
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	var got []NodeID
	s.Each(func(n NodeID) { got = append(got, n) })
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("Each is not ascending")
	}
	for _, n := range got {
		if !want[n] || !s.Has(n) {
			t.Fatalf("node %d visited but never added", n)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("Each visited %d nodes, want %d", len(got), len(want))
	}
	if s.Has(NodeID(d.Cfg.NumNodes() + 64)) {
		t.Fatal("out-of-range node reported present")
	}

	u := NewNodeSet(d)
	u.Add(0)
	u.Union(s)
	u.Union(nil)
	if u.Len() != len(want)+map[bool]int{true: 0, false: 1}[want[0]] {
		t.Fatalf("union Len = %d", u.Len())
	}
}

func TestNilNodeSetIsEmpty(t *testing.T) {
	var s *NodeSet
	if s.Len() != 0 || s.Has(0) {
		t.Fatal("nil set not empty")
	}
	s.Each(func(NodeID) { t.Fatal("nil set visited a node") })
}

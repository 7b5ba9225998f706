package rng

import (
	"math"
	"math/rand"
	"testing"
)

// referenceSeeds covers the seed reduction's corners (negative, zero, the
// modulus and its multiples, which math/rand maps to a fixed seed, the
// int64 extremes) and a spread of ordinary and mixed seeds.
func referenceSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2, 89482311, int32max, -int32max, 2 * int32max, -3 * int32max,
		int32max - 1, int32max + 1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	for i := int64(0); i < 2000; i++ {
		seeds = append(seeds, mix(uint64(i)), int64(i*7919)-5000, -mix(uint64(i)))
	}
	return seeds
}

// sameRands seeds src and draws the same mixed sequence from it and from a
// math/rand source, through every distribution the simulator uses, and
// reports the first mismatch. n draws of each kind are made per pass; with
// n ≥ 200 one pass reads past 1,214 source values, so both the feed and the
// tap index wrap.
func sameRands(t *testing.T, src *source, seed int64, n int) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	src.Seed(seed)
	got := rand.New(src)
	fail := func(what string, i int, g, w any) {
		t.Helper()
		t.Fatalf("seed %d: %s draw %d = %v, math/rand gives %v", seed, what, i, g, w)
	}
	for i := 0; i < n; i++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			fail("Int63", i, g, w)
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			fail("Uint64", i, g, w)
		}
		if g, w := got.Intn(1+i), want.Intn(1+i); g != w {
			fail("Intn", i, g, w)
		}
		if g, w := got.Intn(1<<40+i), want.Intn(1<<40+i); g != w {
			fail("Intn(large)", i, g, w)
		}
		if g, w := got.Float64(), want.Float64(); g != w {
			fail("Float64", i, g, w)
		}
		if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
			fail("NormFloat64", i, g, w)
		}
		if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
			fail("ExpFloat64", i, g, w)
		}
	}
	gp, wp := got.Perm(n), want.Perm(n)
	for i := range gp {
		if gp[i] != wp[i] {
			fail("Perm", i, gp[i], wp[i])
		}
	}
	gs, ws := make([]int, n), make([]int, n)
	for i := range gs {
		gs[i], ws[i] = i, i
	}
	got.Shuffle(n, func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
	want.Shuffle(n, func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	for i := range gs {
		if gs[i] != ws[i] {
			fail("Shuffle", i, gs[i], ws[i])
		}
	}
}

// TestSourceMatchesMathRand: source is math/rand's generator, draw for draw,
// for every seed — short streams that stay in the lazily seeded phase and
// long ones that wrap both indices many times. One source is reseeded for
// every seed, so what a seed leaves in the state never leaks into the next.
func TestSourceMatchesMathRand(t *testing.T) {
	var src source
	for k, seed := range referenceSeeds() {
		n := 3
		if k%10 == 0 {
			n = 400
		}
		sameRands(t, &src, seed, n)
	}
}

// FuzzSourceMatchesMathRand checks source against math/rand for a fuzzed
// seed and a byte-coded sequence of draws: each byte picks a distribution
// (low 3 bits) and a repeat count (high bits), so long inputs run far past
// the lazily seeded phase.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(42), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(0), []byte{0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa})
	f.Add(int64(-int32max), []byte{0xf8, 0xf9, 0xf8, 0xf9, 0xf8, 0xf9, 0xf8, 0xf9})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		want := rand.New(rand.NewSource(seed))
		var src source
		src.Seed(seed)
		got := rand.New(&src)
		for k, op := range ops {
			for rep := 0; rep <= int(op>>3); rep++ {
				var g, w any
				switch op & 7 {
				case 0:
					g, w = got.Int63(), want.Int63()
				case 1:
					g, w = got.Uint64(), want.Uint64()
				case 2:
					g, w = got.Intn(1+rep), want.Intn(1+rep)
				case 3:
					g, w = got.Float64(), want.Float64()
				case 4:
					g, w = got.NormFloat64(), want.NormFloat64()
				case 5:
					g, w = got.ExpFloat64(), want.ExpFloat64()
				case 6:
					gp, wp := got.Perm(rep+1), want.Perm(rep+1)
					g, w = gp[len(gp)-1], wp[len(wp)-1]
				case 7:
					g, w = got.Int31n(int32(rep)+1), want.Int31n(int32(rep)+1)
				}
				if g != w {
					t.Fatalf("seed %d op %d (%d) rep %d: got %v, math/rand gives %v", seed, k, op&7, rep, g, w)
				}
			}
		}
	})
}

// TestSplitAllocs pins a warm Split to two allocations: the Stream, which
// carries its source inline, and the math/rand Rand over it.
func TestSplitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are checked without the race detector")
	}
	root := New(1)
	root.Split("warm")
	if allocs := testing.AllocsPerRun(50, func() { root.Split("pair-3-17").Float64() }); allocs != 2 {
		t.Fatalf("warm Split allocated %v times per call, want 2", allocs)
	}
}

package counters

import (
	"strings"
	"testing"

	"dragonvar/internal/topology"
)

func TestTableComplete(t *testing.T) {
	if NumJob != 13 {
		t.Fatalf("NumJob = %d, want 13 (Table II)", NumJob)
	}
	seen := map[string]bool{}
	for i := 0; i < NumJob; i++ {
		info := Table[i]
		if info.Abbrev == "" || info.AriesName == "" || info.Description == "" {
			t.Fatalf("incomplete Table entry %d: %+v", i, info)
		}
		if seen[info.Abbrev] {
			t.Fatalf("duplicate abbreviation %q", info.Abbrev)
		}
		seen[info.Abbrev] = true
		if !strings.HasPrefix(info.AriesName, "AR_RTR_") {
			t.Fatalf("counter %d has non-Aries name %q", i, info.AriesName)
		}
	}
	// router-tile counters come before processor-tile counters, per Table II
	if !strings.HasPrefix(Table[RTFlitTot].Abbrev, "RT_") || !strings.HasPrefix(Table[PTRBStlRs].Abbrev, "PT_") {
		t.Fatal("counter prefixes wrong")
	}
}

func TestIndexString(t *testing.T) {
	if RTRBStl.String() != "RT_RB_STL" {
		t.Fatalf("RTRBStl.String() = %q", RTRBStl.String())
	}
	if Index(-1).String() != "Index(-1)" {
		t.Fatal("out-of-range String() should be diagnostic")
	}
}

func TestBoardAddGet(t *testing.T) {
	b := NewBoard(10)
	b.Add(3, RTRBStl, 5)
	b.Add(3, RTRBStl, 2)
	if b.Get(3, RTRBStl) != 7 {
		t.Fatalf("Get = %v", b.Get(3, RTRBStl))
	}
	if b.Get(3, RTFlitTot) != 0 {
		t.Fatal("untouched counter should be 0")
	}
}

func TestSnapshotIndependent(t *testing.T) {
	b := NewBoard(4)
	b.Add(1, PTFlitTot, 10)
	snap := b.Snapshot()
	b.Add(1, PTFlitTot, 5)
	if snap.Get(1, PTFlitTot) != 10 {
		t.Fatal("snapshot should not track later writes")
	}
}

func TestDeltaSum(t *testing.T) {
	b := NewBoard(6)
	b.Add(2, RTFlitTot, 100)
	snap := b.Snapshot()
	b.Add(2, RTFlitTot, 30)
	b.Add(4, RTFlitTot, 7)
	b.Add(5, RTFlitTot, 1000) // not in our router set

	d := b.DeltaSum(snap, []topology.RouterID{2, 4})
	if d[RTFlitTot] != 37 {
		t.Fatalf("delta = %v, want 37", d[RTFlitTot])
	}
	if d[RTRBStl] != 0 {
		t.Fatal("counter never written should have zero delta")
	}
}

func TestDeltaSumOnlyJobRouters(t *testing.T) {
	// AriesNCL limitation: only the job's own routers are visible
	b := NewBoard(3)
	snap := b.Snapshot()
	b.Add(0, PTRBStlRq, 50)
	d := b.DeltaSum(snap, []topology.RouterID{1, 2})
	if d[PTRBStlRq] != 0 {
		t.Fatal("foreign router counters leaked into the job's view")
	}
}

func TestLDMSSample(t *testing.T) {
	b := NewBoard(4)
	snap := b.Snapshot()
	b.Add(0, RTFlitTot, 10)
	b.Add(0, RTRBStl, 20)
	b.Add(0, PTFlitTot, 30)
	b.Add(0, PTPktTot, 40)
	b.Add(0, PTFlitVC0, 999) // not an LDMS feature

	s := b.LDMSSample(snap, []topology.RouterID{0})
	if s[LDMSRTFlitTot] != 10 || s[LDMSRTRBStl] != 20 || s[LDMSPTFlitTot] != 30 || s[LDMSPTPktTot] != 40 {
		t.Fatalf("LDMS sample = %v", s)
	}
}

func TestLDMSNames(t *testing.T) {
	names := LDMSNames("IO")
	want := []string{"IO_RT_FLIT_TOT", "IO_RT_RB_STL", "IO_PT_FLIT_TOT", "IO_PT_PKT_TOT"}
	if len(names) != len(want) {
		t.Fatalf("LDMSNames len = %d", len(names))
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("LDMSNames[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestFeatureSetNamesAndCount(t *testing.T) {
	cases := []struct {
		fs    FeatureSet
		count int
		label string
	}{
		{FeatureSet{}, 13, "app"},
		{FeatureSet{Placement: true}, 15, "app + placement"},
		{FeatureSet{Placement: true, IO: true}, 19, "app + placement + io"},
		{FeatureSet{Placement: true, IO: true, Sys: true}, 23, "app + placement + io + sys"},
	}
	for _, tc := range cases {
		if got := tc.fs.Count(); got != tc.count {
			t.Errorf("%v Count = %d, want %d", tc.fs, got, tc.count)
		}
		if got := len(tc.fs.Names()); got != tc.count {
			t.Errorf("%v Names len = %d, want %d", tc.fs, got, tc.count)
		}
		if got := tc.fs.String(); got != tc.label {
			t.Errorf("String = %q, want %q", got, tc.label)
		}
	}
}

func TestFeatureSetFullOrderMatchesFigure11(t *testing.T) {
	names := FeatureSet{Placement: true, IO: true, Sys: true}.Names()
	want := []string{
		"RT_FLIT_TOT", "RT_PKT_TOT", "RT_RB_2X_USG", "RT_RB_STL",
		"PT_CB_STL_RQ", "PT_CB_STL_RS", "PT_FLIT_VC0", "PT_FLIT_VC4",
		"PT_FLIT_TOT", "PT_PKT_TOT", "PT_RB_STL_RQ", "PT_RB_2X_USG", "PT_RB_STL_RS",
		"NUM_ROUTERS", "NUM_GROUPS",
		"IO_RT_FLIT_TOT", "IO_RT_RB_STL", "IO_PT_FLIT_TOT", "IO_PT_PKT_TOT",
		"SYS_RT_FLIT_TOT", "SYS_RT_RB_STL", "SYS_PT_FLIT_TOT", "SYS_PT_PKT_TOT",
	}
	if len(names) != len(want) {
		t.Fatalf("feature count = %d, want %d", len(names), len(want))
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("feature[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestSnapshotInto(t *testing.T) {
	b := NewBoard(3)
	b.Add(1, RTFlitTot, 42)
	dst := NewBoard(3)
	b.SnapshotInto(dst)
	if dst.Get(1, RTFlitTot) != 42 {
		t.Fatal("SnapshotInto lost data")
	}
	b.Add(1, RTFlitTot, 1)
	if dst.Get(1, RTFlitTot) != 42 {
		t.Fatal("SnapshotInto should not alias")
	}
	// resizing path
	small := NewBoard(1)
	b.SnapshotInto(small)
	if small.NumRouters() != 3 || small.Get(1, RTFlitTot) != 43 {
		t.Fatal("SnapshotInto resize failed")
	}
}

func TestSampleInto(t *testing.T) {
	b := NewBoard(3)
	b.Add(0, RTFlitTot, 100)
	b.Add(0, RTRBStl, 7)
	b.Add(2, PTFlitTot, 50)
	b.Add(2, PTPktTot, 5)

	dst := make([]float64, 3*NumLDMS)
	b.SampleInto(dst)
	want := []float64{
		100, 7, 0, 0, // router 0
		0, 0, 0, 0, // router 1
		0, 0, 50, 5, // router 2
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("SampleInto[%d] = %v, want %v", i, dst[i], want[i])
		}
	}

	// rows are cumulative: a later row minus an earlier one is the
	// per-router increase monitor.Replay observes
	b.Add(0, RTFlitTot, 10)
	b.Add(1, RTRBStl, 3)
	b.Add(2, PTPktTot, 1)
	later := make([]float64, 3*NumLDMS)
	b.SampleInto(later)
	wantDelta := []float64{
		10, 0, 0, 0,
		0, 3, 0, 0,
		0, 0, 0, 1,
	}
	for i := range wantDelta {
		if later[i]-dst[i] != wantDelta[i] {
			t.Fatalf("SampleInto row increase [%d] = %v, want %v", i, later[i]-dst[i], wantDelta[i])
		}
	}
}

func TestParseFeatureSet(t *testing.T) {
	cases := []struct {
		in   string
		want FeatureSet
		err  bool
	}{
		{in: "", want: FeatureSet{}},
		{in: "app", want: FeatureSet{}},
		{in: "placement", want: FeatureSet{Placement: true}},
		{in: "placement,io", want: FeatureSet{Placement: true, IO: true}},
		{in: "app + sys", want: FeatureSet{Sys: true}},
		{in: "io+sys placement", want: FeatureSet{Placement: true, IO: true, Sys: true}},
		{in: ",,io,", want: FeatureSet{IO: true}},
		{in: "placement,bogus", err: true},
		{in: "IO", err: true},
	}
	for _, c := range cases {
		got, err := ParseFeatureSet(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseFeatureSet(%q) error = %v, want error %t", c.in, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("ParseFeatureSet(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

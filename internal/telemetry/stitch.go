package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Trace stitching. `dfvar trace` reads the -telemetry snapshots written by
// several processes (a coordinator and its workers, say), joins their spans
// on span IDs into one cross-process tree, and reports where the wall clock
// actually went — coordinator wait vs worker compute vs network and retry
// time — plus any orphaned spans whose parent never showed up (a crashed
// process, a lost file, or a propagation bug) or whose parent chain loops.

// StitchSpan is one span of a trace file, with absolute unix-nanosecond
// timestamps, so files from several processes on one host align on a
// shared clock.
type StitchSpan struct {
	TraceID      string
	SpanID       string
	ParentSpanID string
	Name         string
	StartNs      int64
	DurNs        int64
	Attrs        map[string]string
}

// TraceFile is one process's spans, ready to stitch.
type TraceFile struct {
	Path  string
	Proc  ProcessInfo
	Spans []StitchSpan
}

// ReadTraceFile reads a snapshot written by -telemetry as one process's
// trace file.
func ReadTraceFile(path string) (*TraceFile, error) {
	s, err := ReadSnapshot(path)
	if err != nil {
		return nil, err
	}
	tf, err := s.stitchInput()
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	tf.Path = path
	return tf, nil
}

// stitchInput is traceFile for a snapshot read from disk: it rejects a
// file without a process identity and a span without a span ID, neither
// of which a registry writes.
func (s *Snapshot) stitchInput() (*TraceFile, error) {
	if s.Process.PID == 0 || s.Process.StartedAt.IsZero() {
		return nil, fmt.Errorf("no process identity (is this a -telemetry snapshot?)")
	}
	for i, sp := range s.Spans {
		if sp.SpanID == "" {
			return nil, fmt.Errorf("span %d (%s) without span_id", i, sp.Name)
		}
	}
	return s.traceFile(), nil
}

// traceFile converts the snapshot's spans to a trace file with absolute
// unix-nanosecond timestamps. Remote parent IDs are kept.
func (s *Snapshot) traceFile() *TraceFile {
	base := s.Process.StartedAt.UnixNano()
	tf := &TraceFile{Proc: s.Process, Spans: make([]StitchSpan, len(s.Spans))}
	for i, sp := range s.Spans {
		tf.Spans[i] = StitchSpan{
			TraceID:      sp.TraceID,
			SpanID:       sp.SpanID,
			ParentSpanID: sp.ParentSpanID,
			Name:         sp.Name,
			StartNs:      base + int64(sp.StartS*1e9),
			DurNs:        int64(sp.DurS * 1e9),
			Attrs:        sp.Attrs,
		}
	}
	return tf
}

// localStitch is the one-process view of the snapshot behind the stderr
// flame: a span whose parent is not in this snapshot (a remote parent in
// another process, or a local one still open) renders as a root rather
// than as an orphan.
func (s *Snapshot) localStitch() *Stitch {
	tf := s.traceFile()
	ids := make(map[string]bool, len(tf.Spans))
	for _, sp := range tf.Spans {
		ids[sp.SpanID] = true
	}
	for i := range tf.Spans {
		if !ids[tf.Spans[i].ParentSpanID] {
			tf.Spans[i].ParentSpanID = ""
		}
	}
	return StitchTraces([]*TraceFile{tf})
}

// StitchNode is one span wired into the merged cross-process tree.
type StitchNode struct {
	Span     StitchSpan
	Proc     *ProcessInfo // identity of the emitting process
	Parent   *StitchNode  // nil for roots and orphans
	Children []*StitchNode
}

// Stitch is the merged view over several processes' trace files. Every
// node is reached exactly once by walking Children down from Roots and
// Orphans.
type Stitch struct {
	Files []*TraceFile
	Nodes []*StitchNode
	// Roots are spans with no parent reference at all.
	Roots []*StitchNode
	// Orphans are spans whose parent chain never reaches a root: the
	// parent appears in none of the files — a crashed process, a missing
	// file, or broken propagation — or the chain loops back on itself. They
	// are rendered as extra roots but flagged.
	Orphans []*StitchNode
	// CrossProcessEdges counts child→parent links that span two processes.
	CrossProcessEdges int
	// DuplicateSpanIDs counts span IDs seen more than once across files.
	DuplicateSpanIDs int
}

// StitchTraces joins the given trace files on span IDs into one tree.
func StitchTraces(files []*TraceFile) *Stitch {
	st := &Stitch{Files: files}
	byID := map[string]*StitchNode{}
	for _, tf := range files {
		proc := &tf.Proc
		for i := range tf.Spans {
			n := &StitchNode{Span: tf.Spans[i], Proc: proc}
			st.Nodes = append(st.Nodes, n)
			if byID[n.Span.SpanID] != nil {
				st.DuplicateSpanIDs++
			} else {
				byID[n.Span.SpanID] = n
			}
		}
	}
	for _, n := range st.Nodes {
		if n.Span.ParentSpanID != "" {
			n.Parent = byID[n.Span.ParentSpanID]
		}
	}
	// Walk each parent chain up to a node already placed. A chain that
	// comes back to a node of its own walk is a cycle: the node it comes
	// back to loses its parent link and becomes an orphan.
	const (
		unseen = iota
		walking
		placed
	)
	state := make(map[*StitchNode]int, len(st.Nodes))
	var chain []*StitchNode
	for _, n := range st.Nodes {
		chain = chain[:0]
		m := n
		for m != nil && state[m] == unseen {
			state[m] = walking
			chain = append(chain, m)
			m = m.Parent
		}
		if m != nil && state[m] == walking {
			m.Parent = nil
		}
		for _, c := range chain {
			state[c] = placed
		}
	}
	for _, n := range st.Nodes {
		switch {
		case n.Parent != nil:
			n.Parent.Children = append(n.Parent.Children, n)
			if n.Parent.Proc != n.Proc {
				st.CrossProcessEdges++
			}
		case n.Span.ParentSpanID == "":
			st.Roots = append(st.Roots, n)
		default:
			st.Orphans = append(st.Orphans, n)
		}
	}
	order := func(ns []*StitchNode) {
		sort.SliceStable(ns, func(i, j int) bool { return ns[i].Span.StartNs < ns[j].Span.StartNs })
	}
	for _, n := range st.Nodes {
		order(n.Children)
	}
	order(st.Roots)
	order(st.Orphans)
	return st
}

// TraceIDs returns the distinct trace IDs present, sorted.
func (st *Stitch) TraceIDs() []string {
	set := map[string]bool{}
	for _, n := range st.Nodes {
		if n.Span.TraceID != "" {
			set[n.Span.TraceID] = true
		}
	}
	ids := make([]string, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// roleOf names a node's process for display.
func roleOf(n *StitchNode) string {
	if n.Proc.Role != "" {
		return n.Proc.Role
	}
	return fmt.Sprintf("pid%d", n.Proc.PID)
}

// stitchFlameNode aggregates merged-tree nodes sharing one name chain.
type stitchFlameNode struct {
	name     string
	role     string
	count    int
	totalNs  int64
	children map[string]*stitchFlameNode
}

// Flame renders the merged tree as a cross-process flame summary: nodes
// aggregated by their chain of span names from the root, each line showing
// the emitting role, call count, total wall-clock time, and share of the
// parent's time. Orphans aggregate under a flagged pseudo-root.
func (st *Stitch) Flame() string {
	root := &stitchFlameNode{children: map[string]*stitchFlameNode{}}
	var add func(agg *stitchFlameNode, n *StitchNode)
	add = func(agg *stitchFlameNode, n *StitchNode) {
		key := roleOf(n) + ":" + n.Span.Name
		child := agg.children[key]
		if child == nil {
			child = &stitchFlameNode{name: n.Span.Name, role: roleOf(n), children: map[string]*stitchFlameNode{}}
			agg.children[key] = child
		}
		child.count++
		child.totalNs += n.Span.DurNs
		for _, c := range n.Children {
			add(child, c)
		}
	}
	for _, n := range st.Roots {
		add(root, n)
	}
	orphanRoot := &stitchFlameNode{children: map[string]*stitchFlameNode{}}
	for _, n := range st.Orphans {
		add(orphanRoot, n)
	}

	var b strings.Builder
	b.WriteString("cross-process flame (wall-clock, aggregated by span chain)\n")
	if len(st.Nodes) == 0 {
		b.WriteString("  (no spans)\n")
		return b.String()
	}
	var render func(agg *stitchFlameNode, depth int, parentNs int64)
	render = func(agg *stitchFlameNode, depth int, parentNs int64) {
		kids := make([]*stitchFlameNode, 0, len(agg.children))
		for _, c := range agg.children {
			kids = append(kids, c)
		}
		sort.Slice(kids, func(i, j int) bool {
			if kids[i].totalNs != kids[j].totalNs {
				return kids[i].totalNs > kids[j].totalNs
			}
			return kids[i].name < kids[j].name
		})
		for _, c := range kids {
			share := ""
			if parentNs > 0 {
				share = fmt.Sprintf("  %5.1f%%", 100*float64(c.totalNs)/float64(parentNs))
			}
			width := 34 - 2*depth
			if width < 1 {
				width = 1
			}
			fmt.Fprintf(&b, "  %s%-*s %-12s ×%-5d %8s%s\n",
				strings.Repeat("  ", depth), width, c.name, c.role, c.count,
				fmtSeconds(float64(c.totalNs)/1e9), share)
			render(c, depth+1, c.totalNs)
		}
	}
	render(root, 0, 0)
	if len(st.Orphans) > 0 {
		fmt.Fprintf(&b, "  ! orphaned subtrees (parent span missing or in a cycle):\n")
		render(orphanRoot, 1, 0)
	}
	return b.String()
}

// Breakdown reports where the merged trace's wall clock went. For
// distributed campaigns it splits lease lifetimes into worker compute
// (dist/simulate), network/retry (dist/deliver + dist/rpc/*), and
// coordinator-side wait (lease lifetime minus the worker's execution);
// otherwise it falls back to per-role totals of root spans.
func (st *Stitch) Breakdown() string {
	sumByName := map[string]int64{}
	cntByName := map[string]int{}
	var rpcNs int64
	var rpcCnt int
	for _, n := range st.Nodes {
		sumByName[n.Span.Name] += n.Span.DurNs
		cntByName[n.Span.Name]++
		if strings.HasPrefix(n.Span.Name, SpanDistRPCPrefix) {
			rpcNs += n.Span.DurNs
			rpcCnt++
		}
	}
	var b strings.Builder
	b.WriteString("time breakdown\n")
	line := func(indent int, label string, ns int64, count int, note string) {
		cnt := ""
		if count > 0 {
			cnt = fmt.Sprintf(" ×%d", count)
		}
		if note != "" {
			note = "  (" + note + ")"
		}
		fmt.Fprintf(&b, "  %s%-*s %8s%s%s\n", strings.Repeat("  ", indent), 34-2*indent, label,
			fmtSeconds(float64(ns)/1e9), cnt, note)
	}
	if cntByName[SpanDistUnit] > 0 {
		unitNs := sumByName[SpanDistUnit]
		execNs := sumByName[SpanDistUnitExec]
		waitNs := unitNs - execNs
		if waitNs < 0 {
			waitNs = 0
		}
		if c := cntByName[SpanCampaign]; c > 0 {
			line(0, "campaign (coordinator)", sumByName[SpanCampaign], c, "")
		}
		line(0, "lease lifetimes Σ", unitNs, cntByName[SpanDistUnit], "grant → result")
		line(1, "worker execution Σ", execNs, cntByName[SpanDistUnitExec], "")
		line(2, "simulate", sumByName[SpanDistSimulate], cntByName[SpanDistSimulate], "worker compute")
		line(2, "deliver", sumByName[SpanDistDeliver], cntByName[SpanDistDeliver], "network/retry")
		line(1, "coordinator-side wait Σ", waitNs, 0, "lease − worker execution")
		if rpcCnt > 0 {
			line(0, "coordinator RPC handling Σ", rpcNs, rpcCnt, "dist/rpc/*")
		}
		return b.String()
	}
	// generic fallback: root spans per role
	byRole := map[string]int64{}
	cnt := map[string]int{}
	for _, n := range st.Roots {
		byRole[roleOf(n)] += n.Span.DurNs
		cnt[roleOf(n)]++
	}
	roles := make([]string, 0, len(byRole))
	for role := range byRole {
		roles = append(roles, role)
	}
	sort.Strings(roles)
	for _, role := range roles {
		line(0, "root spans: "+role, byRole[role], cnt[role], "")
	}
	return b.String()
}

// StitchProcess summarizes one input file for the machine-readable report.
type StitchProcess struct {
	Role string `json:"role,omitempty"`
}

// StitchSummary is the machine-readable stitch report (`dfvar trace
// -json`); CI asserts on roots, orphans, and cross_process_edges.
type StitchSummary struct {
	Files             []StitchProcess `json:"files"`
	Traces            []string        `json:"traces"`
	Roots             int             `json:"roots"`
	RootNames         []string        `json:"root_names"`
	Orphans           int             `json:"orphans"`
	OrphanNames       []string        `json:"orphan_names,omitempty"`
	CrossProcessEdges int             `json:"cross_process_edges"`
	DuplicateSpanIDs  int             `json:"duplicate_span_ids"`
}

// Summary builds the machine-readable report.
func (st *Stitch) Summary() StitchSummary {
	s := StitchSummary{
		Traces:            st.TraceIDs(),
		Roots:             len(st.Roots),
		Orphans:           len(st.Orphans),
		CrossProcessEdges: st.CrossProcessEdges,
		DuplicateSpanIDs:  st.DuplicateSpanIDs,
	}
	for _, tf := range st.Files {
		s.Files = append(s.Files, StitchProcess{Role: tf.Proc.Role})
	}
	s.RootNames = distinctNames(st.Roots)
	s.OrphanNames = distinctNames(st.Orphans)
	return s
}

// distinctNames returns the sorted set of the nodes' span names.
func distinctNames(ns []*StitchNode) []string {
	seen := map[string]bool{}
	var names []string
	for _, n := range ns {
		if !seen[n.Span.Name] {
			seen[n.Span.Name] = true
			names = append(names, n.Span.Name)
		}
	}
	sort.Strings(names)
	return names
}

// Report renders the full human-readable stitch report: process table,
// trace inventory, cross-process flame, time breakdown, and orphan flags.
func (st *Stitch) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stitched %d file(s), %d spans, %d trace(s)\n",
		len(st.Files), len(st.Nodes), len(st.TraceIDs()))
	for _, tf := range st.Files {
		role := tf.Proc.Role
		if role == "" {
			role = "?"
		}
		fmt.Fprintf(&b, "  %-12s pid %-7d %-16s %4d spans  %s\n",
			role, tf.Proc.PID, tf.Proc.Hostname, len(tf.Spans), tf.Path)
	}
	fmt.Fprintf(&b, "roots: %d, cross-process edges: %d, orphans: %d\n",
		len(st.Roots), st.CrossProcessEdges, len(st.Orphans))
	b.WriteString(st.Flame())
	b.WriteString(st.Breakdown())
	if len(st.Orphans) > 0 {
		fmt.Fprintf(&b, "WARNING: %d orphaned span(s) — parent missing from the supplied files, or in a cycle:\n", len(st.Orphans))
		ids := make(map[string]bool, len(st.Nodes))
		for _, n := range st.Nodes {
			ids[n.Span.SpanID] = true
		}
		const maxList = 10
		for i, n := range st.Orphans {
			if i == maxList {
				fmt.Fprintf(&b, "  … and %d more\n", len(st.Orphans)-maxList)
				break
			}
			why := "missing parent"
			if ids[n.Span.ParentSpanID] {
				why = "parent chain loops through"
			}
			fmt.Fprintf(&b, "  %s (%s) %s %s\n", n.Span.Name, roleOf(n), why, n.Span.ParentSpanID)
		}
	}
	if st.DuplicateSpanIDs > 0 {
		fmt.Fprintf(&b, "WARNING: %d duplicate span ID(s) across files\n", st.DuplicateSpanIDs)
	}
	return b.String()
}

// traceEvent is one Chrome trace-event. Complete ("X") events carry ts+dur
// in microseconds; metadata ("M") events name the process.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceEventFile is the Chrome trace-event JSON object format.
type traceEventFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// MergedTraceEvents renders every input file's spans as one Chrome
// trace-event stream on a shared absolute timeline, one process block per
// input file, orphans flagged with a distinct category.
func (st *Stitch) MergedTraceEvents(w io.Writer) error {
	orphan := map[*StitchNode]bool{}
	for _, n := range st.Orphans {
		orphan[n] = true
	}
	var events []traceEvent
	for _, tf := range st.Files {
		role := tf.Proc.Role
		if role == "" {
			role = "process"
		}
		events = append(events, traceEvent{
			Name: "process_name", Ph: "M", PID: tf.Proc.PID,
			Args: map[string]any{"name": fmt.Sprintf("%s (%s, pid %d)", role, tf.Proc.Hostname, tf.Proc.PID)},
		})
	}
	// lanes: each node shares the lane of its highest in-process ancestor;
	// those ancestors get small lane numbers per process, in start order
	lane := map[*StitchNode]int64{}
	lanes := map[*ProcessInfo]int64{}
	var laneOf func(n *StitchNode) int64
	laneOf = func(n *StitchNode) int64 {
		if v, ok := lane[n]; ok {
			return v
		}
		var v int64
		if n.Parent != nil && n.Parent.Proc == n.Proc {
			v = laneOf(n.Parent)
		} else {
			lanes[n.Proc]++
			v = lanes[n.Proc]
		}
		lane[n] = v
		return v
	}
	for _, n := range st.Nodes {
		cat := "span"
		if orphan[n] {
			cat = "orphan"
		}
		args := map[string]any{"trace_id": n.Span.TraceID, "span_id": n.Span.SpanID}
		if n.Span.ParentSpanID != "" {
			args["parent_span_id"] = n.Span.ParentSpanID
		}
		for k, v := range n.Span.Attrs {
			args[k] = v
		}
		events = append(events, traceEvent{
			Name: n.Span.Name, Ph: "X", Cat: cat,
			PID: n.Proc.PID, TID: laneOf(n),
			Ts: float64(n.Span.StartNs) / 1e3, Dur: float64(n.Span.DurNs) / 1e3,
			Args: args,
		})
	}
	return json.NewEncoder(w).Encode(traceEventFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

package main

import (
	"sort"
	"sync"
	"time"

	"dragonvar/internal/telemetry"
)

// tracer records the benchmark's own spans around calls into the
// program's layers. Spans stay in memory until the run ends. A nil
// *tracer records nothing, so the untraced run pays only a nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	next  int64
	spans []spanRec
}

// spanRec is one finished span: a named interval and the span that caused
// it (parent 0 for a root).
type spanRec struct {
	id, parent int64
	name       string
	start, end time.Duration // offsets from the tracer's epoch
}

func (r spanRec) dur() time.Duration { return r.end - r.start }

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanHandle is an open span; finish closes it. The zero value (from a nil
// tracer) is a no-op.
type spanHandle struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Duration
}

// begin opens a span under parent (0 for a root).
func (t *tracer) begin(parent int64, name string) spanHandle {
	if t == nil {
		return spanHandle{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return spanHandle{t: t, id: id, parent: parent, name: name, start: time.Since(t.epoch)}
}

func (h spanHandle) finish() {
	if h.t == nil {
		return
	}
	end := time.Since(h.t.epoch)
	h.t.mu.Lock()
	h.t.spans = append(h.t.spans, spanRec{id: h.id, parent: h.parent, name: h.name, start: h.start, end: end})
	h.t.mu.Unlock()
}

// records returns a copy of the finished spans.
func (t *tracer) records() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children that overlap each other
// (units simulated on two workers, concurrent requests) count once.
func selfTimes(spans []spanRec) map[int64]time.Duration {
	children := map[int64][]spanRec{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.id] = s.dur() - covered(s, children[s.id])
	}
	return self
}

// covered returns the length of the union of the kids' intervals, clipped
// to the parent's.
func covered(parent spanRec, kids []spanRec) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerStats aggregates spans by name.
type layerStats struct {
	self  time.Duration   // summed self time
	durs  []time.Duration // each span's full duration
	count int
}

// byLayer sums self time per span name.
func byLayer(spans []spanRec) map[string]*layerStats {
	self := selfTimes(spans)
	out := map[string]*layerStats{}
	for _, s := range spans {
		ls := out[s.name]
		if ls == nil {
			ls = &layerStats{}
			out[s.name] = ls
		}
		ls.self += self[s.id]
		ls.durs = append(ls.durs, s.dur())
		ls.count++
	}
	return out
}

// selfSeconds sums the self time of the named layers, in seconds.
func selfSeconds(layers map[string]*layerStats, names ...string) float64 {
	var d time.Duration
	for _, n := range names {
		if ls := layers[n]; ls != nil {
			d += ls.self
		}
	}
	return d.Seconds()
}

// enableRegistry turns on the program's telemetry for the traced pass;
// components capture their metric handles when built, so it must run
// before they are. The returned function turns it off again.
func enableRegistry() (*telemetry.Registry, func()) {
	reg := telemetry.New()
	reg.SetRole("perfbench")
	telemetry.Enable(reg)
	return reg, telemetry.Disable
}

// coverage is the share of the wall time of the root spans named root
// that their child spans account for: 1 minus the roots' summed self time
// over their summed duration.
func coverage(spans []spanRec, root string) float64 {
	self := selfTimes(spans)
	var wall, unattributed time.Duration
	for _, s := range spans {
		if s.parent == 0 && s.name == root {
			wall += s.dur()
			unattributed += self[s.id]
		}
	}
	if wall <= 0 {
		return 0
	}
	return 1 - float64(unattributed)/float64(wall)
}

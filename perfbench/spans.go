package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Times are seconds since the repetition's
// tracer started; Parent is 0 for a root span.
type Span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
	Workload string  `json:"workload"`
	Rep      int     `json:"rep"`
}

func (s Span) dur() float64 { return s.End - s.Start }

// tracer keeps one repetition's spans in memory; they are written out when
// the benchmark ends. A nil *tracer records nothing, which is how the
// untraced repetitions run.
type tracer struct {
	t0       time.Time
	workload string
	rep      int

	mu     sync.Mutex
	spans  []Span
	counts map[string]float64 // work counted at the same boundaries
}

func newTracer(workload string, rep int) *tracer {
	return &tracer{t0: time.Now(), workload: workload, rep: rep, counts: map[string]float64{}}
}

// count adds v to the named counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// begin opens a span under parent and returns its id and the function that
// closes it.
func (t *tracer) begin(name string, parent int) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Name: name,
		Start: time.Since(t.t0).Seconds(), Workload: t.workload, Rep: t.rep,
	})
	t.mu.Unlock()
	return id, func() {
		now := time.Since(t.t0).Seconds()
		t.mu.Lock()
		t.spans[id-1].End = now
		t.mu.Unlock()
	}
}

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
		Workload: t.workload, Rep: t.rep,
	})
	return id
}

// timed runs fn under a span and returns the MB it allocated.
func (t *tracer) timed(name string, parent int, fn func() error) (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, end := t.begin(name, parent)
	err := fn()
	end()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6, err
}

func (t *tracer) all() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (concurrent
// calls under one parent) count once.
func selfTimes(spans []Span) map[int]float64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent Span, children []Span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := 0.0, parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// spanStats sums self time and collects durations by span name.
type spanStats struct {
	self map[string]float64
	durs map[string][]float64
}

func summarize(spans []Span) spanStats {
	st := spanStats{self: map[string]float64{}, durs: map[string][]float64{}}
	self := selfTimes(spans)
	for _, s := range spans {
		st.self[s.Name] += self[s.ID]
		st.durs[s.Name] = append(st.durs[s.Name], s.dur())
	}
	return st
}

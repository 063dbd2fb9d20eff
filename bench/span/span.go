// Package span records named, nested timing spans in memory and computes
// each span's self time: its duration minus the part of its interval that
// its child spans cover. The traced replay records spans with it; the
// benchmark harness summarizes them per layer.
package span

import (
	"sort"
	"time"
)

// Span is one timed interval. Start and End are seconds since the
// recorder began; Parent indexes the enclosing span in the same list, or
// is -1 for a top-level span.
type Span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
}

// Recorder collects spans from one goroutine. A span started while
// another is open becomes its child.
type Recorder struct {
	t0    time.Time
	spans []Span
	open  []int
}

// NewRecorder returns a recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Start opens a span and returns its id for End.
func (r *Recorder) Start(name string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, Span{Name: name, Start: time.Since(r.t0).Seconds(), Parent: parent})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// End closes span id, which must be the innermost open span, and returns
// its duration in seconds.
func (r *Recorder) End(id int) float64 {
	r.spans[id].End = time.Since(r.t0).Seconds()
	r.open = r.open[:len(r.open)-1]
	return r.spans[id].End - r.spans[id].Start
}

// Rename changes the name of span id (used once a call's outcome, such
// as a memo hit or miss, is known).
func (r *Recorder) Rename(id int, name string) { r.spans[id].Name = name }

// Spans returns the recorded spans in start order.
func (r *Recorder) Spans() []Span { return r.spans }

// SelfTimes returns, for each span, its duration minus the length of the
// union of its direct children's intervals clipped to it.
func SelfTimes(spans []Span) []float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b float64 }
		ivs := make([]iv, 0, len(children[i]))
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, end := 0.0, s.Start
		for _, v := range ivs {
			if v.a > end {
				end = v.a
			}
			if v.b > end {
				covered += v.b - end
				end = v.b
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// Layer aggregates every span of one name.
type Layer struct {
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// Layers sums spans by name: how many, their total duration and their
// total self time.
func Layers(spans []Span) map[string]Layer {
	self := SelfTimes(spans)
	out := make(map[string]Layer)
	for i, s := range spans {
		l := out[s.Name]
		l.Count++
		l.Total += s.End - s.Start
		l.Self += self[i]
		out[s.Name] = l
	}
	return out
}

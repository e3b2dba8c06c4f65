package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the harness made into a layer. Spans live in
// memory until the run ends; Parent is the index of the enclosing span
// on the same track, -1 at the top.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Track  int    `json:"track"`
	Pass   int    `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Trace collects spans from every track. A nil *Trace is the untraced
// run: tracks made from it are nil and their begin/end do nothing, so
// the measured loops carry one nil check per call.
type Trace struct {
	epoch  time.Time
	mu     sync.Mutex
	tracks []*track
}

func newTrace() *Trace { return &Trace{epoch: time.Now()} }

// track is one goroutine's span stack; spans on a track nest. A track
// buffers its own spans — Parent is an index into that buffer until
// snapshot renumbers — so concurrent consumers never share a lock on
// the measured path.
type track struct {
	epoch time.Time
	pass  int
	spans []Span
	stack []int
}

func (t *Trace) newTrack(pass int) *track {
	if t == nil {
		return nil
	}
	k := &track{epoch: t.epoch, pass: pass}
	t.mu.Lock()
	t.tracks = append(t.tracks, k)
	t.mu.Unlock()
	return k
}

func (k *track) begin(name string) int {
	if k == nil {
		return -1
	}
	parent := -1
	if n := len(k.stack); n > 0 {
		parent = k.stack[n-1]
	}
	id := len(k.spans)
	k.spans = append(k.spans, Span{Parent: parent, Pass: k.pass, Name: name, Start: int64(time.Since(k.epoch))})
	k.stack = append(k.stack, id)
	return id
}

func (k *track) end(id int) {
	if k == nil {
		return
	}
	k.spans[id].End = int64(time.Since(k.epoch))
	k.stack = k.stack[:len(k.stack)-1]
}

// snapshot merges the tracks into one list with global span ids. Call it
// only when the goroutines that own the tracks have finished.
func (t *Trace) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for ti, k := range t.tracks {
		base := len(out)
		for i, s := range k.spans {
			s.ID, s.Track = base+i, ti
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

func (t *Trace) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanTotals is what the per-layer numbers are derived from: per span
// name, the call count, the summed duration, and the summed self time
// (duration minus the part of the interval child spans cover).
type spanTotals struct {
	Count int
	Total time.Duration
	Self  time.Duration
}

func totalsByName(spans []Span) map[string]spanTotals {
	children := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	out := make(map[string]spanTotals)
	for _, s := range spans {
		dur := s.End - s.Start
		t := out[s.Name]
		t.Count++
		t.Total += time.Duration(dur)
		t.Self += time.Duration(dur - covered(s, children[s.ID], spans))
		out[s.Name] = t
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to
// the parent: overlapping or touching children are not counted twice.
func covered(parent Span, kids []int, spans []Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, id := range kids {
		a, b := spans[id].Start, spans[id].End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}

// durationsOf returns each span of the given name's duration, for
// percentile metrics such as open_p50_ms.
func durationsOf(spans []Span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Job; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // guarded by mu; span ID = index + 1
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) begin(name string, parent int, job string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: now})
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as a JSON document at path.
func (r *recorder) write(path string, host hostInfo) error {
	b, err := json.MarshalIndent(struct {
		Host  hostInfo `json:"host"`
		Spans []span   `json:"spans"`
	}{host, r.snapshot()}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time, indexed like spans: its
// duration minus the part of its interval that its children's intervals
// cover (overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered returns how much of [lo, hi) the union of the children's
// intervals covers.
func covered(lo, hi int64, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = lo
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return total
}

// spanStats groups spans by name: every duration (ms) and the summed self
// time (ms).
type spanStats struct {
	durMS  map[string][]float64
	selfMS map[string]float64
}

func statsOf(spans []span) spanStats {
	st := spanStats{durMS: make(map[string][]float64), selfMS: make(map[string]float64)}
	self := selfTimes(spans)
	for i, s := range spans {
		st.durMS[s.Name] = append(st.durMS[s.Name], float64(s.dur())/1e6)
		st.selfMS[s.Name] += float64(self[i]) / 1e6
	}
	return st
}

// medianMS is the median duration of the named spans, 0 when none ran.
func (st spanStats) medianMS(name string) float64 { return median(st.durMS[name]) }

// names lists the span names in sorted order.
func (st spanStats) names() []string {
	out := make([]string, 0, len(st.durMS))
	for n := range st.durMS {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

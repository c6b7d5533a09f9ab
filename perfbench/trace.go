package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// The span recorder of the traced run. Spans are recorded by the
// benchmark's own wrappers around the program's public seams and by
// the stage-by-stage replay; they live in memory and are written out
// once the run ends. A nil *tracer records nothing, so the timed
// (untraced) run uses the very same code paths.

// span is one recorded interval. Group is the request or tile id
// every span of one request or tile shares.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = root
	Name   string  `json:"name"`
	Group  string  `json:"group"`
	Start  float64 `json:"start_s"` // since the tracer started
	End    float64 `json:"end_s"`
	Bytes  int64   `json:"bytes,omitempty"`
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since(at time.Time) float64 { return at.Sub(t.t0).Seconds() }

// record stores a finished span and returns its id (0 on a nil tracer).
func (t *tracer) record(name, group string, parent int, start, end time.Time, bytes int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Group: group,
		Start: t.since(start), End: t.since(end), Bytes: bytes})
	return id
}

// open starts a span whose end is filled in by close; children can
// name it as their parent while it is open.
func (t *tracer) open(name, group string, parent int) int {
	now := time.Now()
	return t.record(name, group, parent, now, now, 0)
}

func (t *tracer) close(id int) { t.closeAt(id, time.Now()) }

// closeAt ends an open span at the given instant.
func (t *tracer) closeAt(id int, at time.Time) {
	if t == nil || id == 0 {
		return
	}
	end := t.since(at)
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// spanName returns the name of a recorded span ("" for none).
func (t *tracer) spanName(id int) string {
	if t == nil || id == 0 {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].Name
}

// layerRow is one line of the per-layer table: a span name's self time
// summed over its spans.
type layerRow struct {
	Name   string  `json:"name"`
	Spans  int     `json:"spans"`
	SelfS  float64 `json:"self_s"`
	Share  float64 `json:"share_of_root"`
	BytesM float64 `json:"mb,omitempty"`
}

// selfTimes computes each span's self time — its duration minus the
// union of its children's intervals — and sums it by span name over
// the trees whose root span is named root. It returns the rows plus
// the root wall time (the summed duration of those roots) and the
// concurrency overlap: self times summed over the tree exceed the root
// wall time by the time concurrent siblings ran side by side.
func (t *tracer) selfTimes(root string) (rows []layerRow, rootWall, overlap float64) {
	if t == nil {
		return nil, 0, 0
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rootOf := func(s span) string {
		for s.Parent != 0 {
			s = spans[s.Parent-1]
		}
		return s.Name
	}
	byName := map[string]*layerRow{}
	var total float64
	for _, s := range spans {
		if rootOf(s) != root {
			continue
		}
		self := (s.End - s.Start) - covered(s, children[s.ID])
		total += self
		if s.Parent == 0 {
			rootWall += s.End - s.Start
		}
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			byName[s.Name] = r
		}
		r.Spans++
		r.SelfS += self
		r.BytesM += float64(s.Bytes) / (1 << 20)
	}
	for _, r := range byName {
		if rootWall > 0 {
			r.Share = r.SelfS / rootWall
		}
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfS > rows[j].SelfS })
	return rows, rootWall, total - rootWall
}

// covered returns the length of the union of the children's intervals
// clipped to the parent.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi float64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return sum + curHi - curLo
}

// selfOf returns the summed self time of the named spans.
func selfOf(rows []layerRow, names ...string) float64 {
	var s float64
	for _, r := range rows {
		for _, n := range names {
			if r.Name == n {
				s += r.SelfS
			}
		}
	}
	return s
}

// bytesOf returns the summed byte volume (MiB) of the named spans.
func bytesOf(rows []layerRow, name string) float64 {
	for _, r := range rows {
		if r.Name == name {
			return r.BytesM
		}
	}
	return 0
}

// countOf returns how many spans carry the name.
func countOf(rows []layerRow, name string) int {
	for _, r := range rows {
		if r.Name == name {
			return r.Spans
		}
	}
	return 0
}

// layerTable renders the per-layer rows as text.
func layerTable(rows []layerRow, rootWall, overlap float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %7s %10s %8s %9s\n", "span (layer.stage)", "spans", "self s", "share", "MiB")
	for _, r := range rows {
		mb := ""
		if r.BytesM > 0 {
			mb = fmt.Sprintf("%.2f", r.BytesM)
		}
		fmt.Fprintf(&b, "%-26s %7d %10.4f %7.1f%% %9s\n", r.Name, r.Spans, r.SelfS, 100*r.Share, mb)
	}
	fmt.Fprintf(&b, "%-26s %7s %10.4f\n", "traced wall (roots)", "", rootWall)
	fmt.Fprintf(&b, "%-26s %7s %10.4f   (self times summed minus wall: concurrent spans)\n", "overlap", "", overlap)
	return b.String()
}

// dump writes every span as JSON.
func (t *tracer) dump(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

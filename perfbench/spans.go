package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer's public function, recorded by the
// benchmark around the call.
type Span struct {
	ID     int64
	Parent int64 // 0 for a root span
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
	// Rep identifies the replication the span belongs to (see repID), or
	// -1 for spans outside any one replication.
	Rep int64
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// repID packs a (point, replication) pair into one span identifier.
func repID(point, rep int) int64 { return int64(point)<<20 | int64(rep) }

// Recorder keeps spans in memory for the traced run. Spans are appended
// on lanes — one per goroutine, so the frame path takes no lock — and
// merged into the recorder when a lane is flushed.
type Recorder struct {
	epoch time.Time

	mu    sync.Mutex
	lanes int64
	spans []Span
}

// NewRecorder starts a recorder whose clock reads zero now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Lane returns a span buffer for use by a single goroutine.
func (r *Recorder) Lane() *Lane {
	r.mu.Lock()
	r.lanes++
	id := r.lanes
	r.mu.Unlock()
	return &Lane{rec: r, base: id << 40}
}

// Spans returns every flushed span, ordered by start time.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := slices.Clone(r.spans)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// laneChunk is how many spans a lane stores per allocation. Filled chunks
// are kept, not copied, so a span costs the same however many the lane
// already holds.
const laneChunk = 4096

// Lane is one goroutine's span buffer.
type Lane struct {
	rec  *Recorder
	base int64
	seq  int64
	full [][]Span // filled chunks
	cur  []Span
}

// Open is a started span.
type Open struct {
	id, parent int64
	name       string
	rep        int64
	start      time.Duration
}

// ID is the span's identifier, for use as a child's parent.
func (o Open) ID() int64 { return o.id }

// Begin starts a span. On a nil lane it records nothing.
func (l *Lane) Begin(name string, parent, rep int64) Open {
	if l == nil {
		return Open{}
	}
	l.seq++
	return Open{id: l.base | l.seq, parent: parent, name: name, rep: rep, start: time.Since(l.rec.epoch)}
}

// End closes a span and returns its duration (0 on a nil lane).
func (l *Lane) End(o Open) time.Duration {
	if l == nil {
		return 0
	}
	end := time.Since(l.rec.epoch)
	if len(l.cur) == cap(l.cur) {
		if l.cur != nil {
			l.full = append(l.full, l.cur)
		}
		l.cur = make([]Span, 0, laneChunk)
	}
	l.cur = append(l.cur, Span{ID: o.id, Parent: o.parent, Name: o.name, Start: o.start, End: end, Rep: o.rep})
	return end - o.start
}

// Flush hands the lane's spans to the recorder.
func (l *Lane) Flush() {
	l.rec.mu.Lock()
	for _, c := range append(l.full, l.cur) {
		l.rec.spans = append(l.rec.spans, c...)
	}
	l.rec.mu.Unlock()
	l.full, l.cur = nil, nil
}

// spanPairNs calibrates the recorder: the wall time of one Begin/End
// pair around nothing, the median over batches of the mean per pair.
func spanPairNs() float64 {
	const batches, perBatch = 7, 20000
	var per []float64
	for b := 0; b < batches; b++ {
		l := NewRecorder().Lane()
		start := time.Now()
		for i := 0; i < perBatch; i++ {
			l.End(l.Begin("calibration", 0, -1))
		}
		per = append(per, float64(time.Since(start))/perBatch)
	}
	return median(per)
}

// layerTime is one span name's total and self time.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	// Self is the total minus the part of each span's interval that its
	// child spans cover.
	Self time.Duration
}

// selfTimes folds spans by name. Children of one span may overlap (two
// workers under one sweep span), so the covered part is the union of the
// children's intervals.
func selfTimes(spans []Span) []layerTime {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := make(map[string]*layerTime)
	var names []string
	for _, s := range spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
			names = append(names, s.Name)
		}
		lt.Count++
		lt.Total += s.Dur()
		lt.Self += s.Dur() - covered(s, children[s.ID])
	}
	sort.Strings(names)
	out := make([]layerTime, len(names))
	for i, n := range names {
		out[i] = *by[n]
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// durations returns the durations of every span with the given name, in
// the given unit.
func durations(spans []Span, name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.Dur())/float64(unit))
		}
	}
	return out
}

// writeSpans writes spans as tab-separated lines (id, parent, name,
// start_ns, end_ns, rep) under a header.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns\trep")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", s.ID, s.Parent, s.Name, s.Start.Nanoseconds(), s.End.Nanoseconds(), s.Rep)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

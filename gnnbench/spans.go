package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gnndrive/internal/trace"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanEpoch spanKind = iota
	spanSample
	spanExtract
	spanTrain
	spanRelease
	spanSyncRead
	spanAsyncRead
	spanReplay
	spanPlan
	numSpanKinds
)

// spanNames are the layer names spans carry in the trace file and the
// self-time table.
var spanNames = [numSpanKinds]string{
	spanEpoch:     "epoch",
	spanSample:    "sample.batch",
	spanExtract:   "core.extract.batch",
	spanTrain:     "core.train.batch",
	spanRelease:   "core.release.batch",
	spanSyncRead:  "storage.sync_read",
	spanAsyncRead: "storage.async_read",
	spanReplay:    "core.planner.replay",
	spanPlan:      "core.planner.plan",
}

// stageKinds maps the engine tracer's stage events onto span kinds.
var stageKinds = map[trace.Stage]spanKind{
	trace.StageSample:  spanSample,
	trace.StageExtract: spanExtract,
	trace.StageTrain:   spanTrain,
	trace.StageRelease: spanRelease,
}

// span is one timed interval. Times are nanoseconds since the recorder's
// base; parent is the index of the enclosing span, or -1.
type span struct {
	start, end int64
	parent     int32
	kind       spanKind
	bytes      int32
}

// recorder keeps every span of a traced run in memory until the run
// ends. Reads recorded while an epoch is open take that epoch as their
// parent.
type recorder struct {
	base time.Time
	cur  atomic.Int32 // open epoch span, or -1

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{base: time.Now(), spans: make([]span, 0, 1<<16)}
	r.cur.Store(-1)
	return r
}

func (r *recorder) ns(t time.Time) int64 { return int64(t.Sub(r.base)) }

// add records a closed span and returns its index.
func (r *recorder) add(kind spanKind, parent int32, start, end time.Time, bytes int) int32 {
	s := span{start: r.ns(start), end: r.ns(end), parent: parent, kind: kind, bytes: int32(bytes)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	i := int32(len(r.spans) - 1)
	r.mu.Unlock()
	return i
}

// read records one backend read under the open epoch.
func (r *recorder) read(kind spanKind, start, end time.Time, bytes int) {
	r.add(kind, r.cur.Load(), start, end, bytes)
}

// open starts a span whose end is set by close; an epoch span also
// becomes the parent of reads until it closes.
func (r *recorder) open(kind spanKind, parent int32) int32 {
	now := time.Now()
	i := r.add(kind, parent, now, now, 0)
	if kind == spanEpoch {
		r.cur.Store(i)
	}
	return i
}

func (r *recorder) close(i int32) {
	end := r.ns(time.Now())
	r.mu.Lock()
	r.spans[i].end = end
	kind := r.spans[i].kind
	r.mu.Unlock()
	if kind == spanEpoch {
		r.cur.CompareAndSwap(i, -1)
	}
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// addStages copies the engine tracer's stage events into the recorder,
// parenting each to the epoch span that contains its start. tracerBase
// is the wall time the tracer was created at.
func (r *recorder) addStages(events []trace.Event, tracerBase time.Time, epochs []int32) {
	all := r.snapshot()
	for _, ev := range events {
		kind, ok := stageKinds[ev.Stage]
		if !ok {
			continue
		}
		start := tracerBase.Add(ev.Start)
		at := r.ns(start)
		parent := int32(-1)
		for _, e := range epochs {
			if all[e].start <= at && at <= all[e].end {
				parent = e
				break
			}
		}
		r.add(kind, parent, start, tracerBase.Add(ev.End), 0)
	}
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// selfTimes sums each span kind's duration and self time: the span's
// duration minus the part of it its children cover.
func selfTimes(spans []span) []layerTime {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	var rows [numSpanKinds]layerTime
	for i, s := range spans {
		d := s.end - s.start
		self := d - covered(s, children[int32(i)])
		row := &rows[s.kind]
		row.Count++
		row.Total += float64(d) / 1e9
		row.Self += float64(self) / 1e9
	}
	var out []layerTime
	for k, row := range rows {
		if row.Count == 0 {
			continue
		}
		row.Name = spanNames[k]
		out = append(out, row)
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	ivs := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] <= curHi:
			curHi = max(curHi, iv[1])
		default:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// durationsMs returns the durations, in milliseconds, of the spans of
// kind whose parent is one of parents.
func durationsMs(spans []span, kind spanKind, parents map[int32]bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.kind == kind && parents[s.parent] {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	return out
}

// writeTrace writes the spans as a gzip-compressed Chrome trace-event
// file (it opens in Perfetto or chrome://tracing). Each span's args carry
// its id and parent id; otherData carries the environment stamp.
func writeTrace(path string, spans []span, env envStamp) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriterSize(zw, 1<<16)
	if err := encodeTrace(bw, spans, env); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}

func encodeTrace(w io.Writer, spans []span, env envStamp) error {
	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	for i, s := range spans {
		sep := ","
		if i == 0 {
			sep = ""
		}
		// Chrome trace timestamps are microseconds; one lane per layer.
		if _, err := fmt.Fprintf(w, `%s{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"bytes":%d}}`,
			sep, spanNames[s.kind], s.kind, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.bytes); err != nil {
			return err
		}
	}
	stamp, err := json.Marshal(env)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, `],"otherData":%s}`, stamp)
	return err
}

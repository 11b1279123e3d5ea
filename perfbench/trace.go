package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// spanName names one layer boundary the benchmark times from outside.
type spanName uint8

const (
	spOp         spanName = iota // one foreground operation, retries included
	spGet                        // transaction body of a get
	spWrite                      // transaction body of an insert, update or delete
	spScan                       // transaction body of a scan
	spCommit                     // commit of a writing transaction
	spRelease                    // commit of a read-only transaction
	spReorganize                 // one DB.Reorganize call
	spPass1
	spPass2
	spPass3
	spUnit       // one reorganization unit, from its begin/end event pair
	spTick       // one daemon tick
	spCheckpoint // DB.Checkpoint
	spRestart    // DB.Restart after Crash
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"op", "btree.get", "btree.write", "btree.scan", "txn.commit", "txn.release",
	"reorganize", "core.pass1", "core.pass2", "core.pass3", "core.unit",
	"daemon.tick", "storage.checkpoint", "recovery.restart",
}

// sampled marks the spans whose individual durations are kept, for
// the per-layer quantiles.
var sampled = [nSpanNames]bool{spGet: true, spWrite: true, spScan: true,
	spCommit: true, spUnit: true}

// span is one recorded interval; parent indexes the same tracer's
// kept spans (-1 for a root).
type span struct {
	start, end int64 // ns since the trace epoch
	parent     int32
	name       spanName
}

type openSpan struct {
	idx   int32
	name  spanName
	start int64
	child int64 // time covered by closed children
}

// layerStat aggregates every span of one name, kept or not.
type layerStat struct {
	count       int64
	total, self int64
}

// tracer records spans for one goroutine. Spans are kept in memory up
// to keepCap; past that they still count in the per-layer aggregates.
// A nil tracer records nothing, so untraced code paths pay one nil
// check.
type tracer struct {
	epoch   time.Time
	keepCap int
	keep    []span
	stack   []openSpan
	stats   [nSpanNames]layerStat
	samples [nSpanNames][]int64
}

func newTracer(epoch time.Time, keepCap int) *tracer {
	return &tracer{epoch: epoch, keepCap: keepCap, keep: make([]span, 0, keepCap)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) open(name spanName) {
	if t != nil {
		t.openAt(name, t.now())
	}
}

func (t *tracer) openAt(name spanName, start int64) {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].idx
	}
	idx := int32(-1)
	if len(t.keep) < t.keepCap {
		idx = int32(len(t.keep))
		t.keep = append(t.keep, span{start: start, parent: parent, name: name})
	}
	t.stack = append(t.stack, openSpan{idx: idx, name: name, start: start})
}

func (t *tracer) close() {
	if t != nil {
		t.closeAt(t.now())
	}
}

func (t *tracer) closeAt(end int64) {
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := end - o.start
	st := &t.stats[o.name]
	st.count++
	st.total += d
	st.self += d - o.child
	if sampled[o.name] {
		t.samples[o.name] = append(t.samples[o.name], d)
	}
	if o.idx >= 0 {
		t.keep[o.idx].end = end
	}
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
}

// dropSamples releases the per-span durations once a round's
// quantiles have been taken from them.
func (t *tracer) dropSamples() { t.samples = [nSpanNames][]int64{} }

// top reports the innermost open span's name (nSpanNames when none).
func (t *tracer) top() spanName {
	if len(t.stack) == 0 {
		return nSpanNames
	}
	return t.stack[len(t.stack)-1].name
}

// reorgEvents turns the reorganizer's OnEvent stages into pass and
// unit spans on t, which must be the tracer of the goroutine calling
// DB.Reorganize with a spReorganize span open. A pass starts where
// the previous pass's last unit ended; a unit is a begin/end stage
// pair (a unit abandoned without its end stage closes at the next
// begin).
func (t *tracer) reorgEvents() func(stage string) error {
	pass := 1
	t.open(spPass1)
	lastEnd := t.now()
	return func(stage string) error {
		now := t.now()
		p, unitBegin, unitEnd := stagePass(stage)
		if p > pass {
			if t.top() == spUnit {
				t.closeAt(lastEnd)
			}
			t.closeAt(lastEnd)
			pass = p
			t.openAt(spPass1+spanName(p-1), lastEnd)
		}
		switch {
		case unitBegin:
			if t.top() == spUnit {
				t.closeAt(now)
			}
			t.openAt(spUnit, now)
		case unitEnd:
			if t.top() == spUnit {
				t.closeAt(now)
			}
		}
		lastEnd = now
		return nil
	}
}

// endReorg closes the pass (and any unit) still open when
// DB.Reorganize returns.
func (t *tracer) endReorg() {
	for t.top() == spUnit || (t.top() >= spPass1 && t.top() <= spPass3) {
		t.close()
	}
}

func stagePass(stage string) (pass int, begin, end bool) {
	switch stage {
	case "compact.begin":
		return 1, true, false
	case "compact.end":
		return 1, false, true
	case "move.begin", "swap.begin":
		return 2, true, false
	case "move.end", "swap.end":
		return 2, false, true
	}
	switch {
	case strings.HasPrefix(stage, "pass3."):
		return 3, false, false
	case strings.HasPrefix(stage, "move."), strings.HasPrefix(stage, "swap."):
		return 2, false, false
	}
	return 1, false, false
}

// mergeStats sums the per-layer aggregates of several tracers.
func mergeStats(ts ...*tracer) [nSpanNames]layerStat {
	var out [nSpanNames]layerStat
	for _, t := range ts {
		for i, s := range t.stats {
			out[i].count += s.count
			out[i].total += s.total
			out[i].self += s.self
		}
	}
	return out
}

// writeSelfTable prints one row per layer: span count, total and self
// time, and self time as a share of all self time.
func writeSelfTable(w io.Writer, stats [nSpanNames]layerStat) {
	var all int64
	for _, s := range stats {
		all += s.self
	}
	order := make([]int, 0, nSpanNames)
	for i, s := range stats {
		if s.count > 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return stats[order[a]].self > stats[order[b]].self })
	fmt.Fprintf(w, "  %-20s %10s %12s %12s %7s\n", "layer", "spans", "total_ms", "self_ms", "self%")
	for _, i := range order {
		s := stats[i]
		fmt.Fprintf(w, "  %-20s %10d %12.3f %12.3f %6.1f%%\n", spanNames[i], s.count,
			float64(s.total)/1e6, float64(s.self)/1e6, 100*float64(s.self)/float64(all))
	}
}

// writeSpans writes the kept spans of every lane as a Chrome trace
// event file (viewable in Perfetto or chrome://tracing); args carry
// each span's id and its parent's.
func writeSpans(path string, lanes []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "[")
	first := true
	base := 0
	for lane, t := range lanes {
		for i, s := range t.keep {
			if s.end == 0 {
				continue // still open at the end (not expected)
			}
			parent := -1
			if s.parent >= 0 {
				parent = base + int(s.parent)
			}
			if !first {
				fmt.Fprint(w, ",\n")
			}
			first = false
			fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d}}`,
				spanNames[s.name], lane, float64(s.start)/1e3, float64(s.end-s.start)/1e3, base+i, parent)
		}
		base += len(t.keep)
	}
	fmt.Fprint(w, "]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

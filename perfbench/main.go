// Command perfbench is the repository's benchmark: one process, at
// most two goroutines doing work, three closed-loop workloads
// (mixed-mem, reorg-mem, churn-mem) driven through the public DB API
// and checked against an in-memory model. See README.md.
//
//	go run . --workload mixed-mem --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics with --trace
// 0, the per-layer metrics with --trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro"
)

// workload is one benchmark scenario. prepare generates every input
// from the seed before anything is timed; round runs one fresh set-up
// plus its timed phase and checks.
type workload interface {
	rounds(seconds int) int
	// samples bounds the latency samples one round records, so the
	// sample buffers are allocated before anything is measured.
	samples() sampleCounts
	prepare(b *bench)
	round(b *bench, r *roundCtx) error
}

var workloads = map[string]func() workload{
	"mixed-mem": func() workload { return &mixedMem{} },
	"reorg-mem": func() workload { return &reorgMem{} },
	"churn-mem": func() workload { return &churnMem{} },
}

// bench holds one run's arguments and shared inputs.
type bench struct {
	name    string
	seed    int64
	seconds int
	scale   float64 // input-size multiplier (1 for real runs; the smoke test shrinks it)
	dataDir string  // directory for span files
	keys    keyTable
	vals    *valueGen
	epoch   time.Time
}

// scaled returns n scaled by b.scale, at least min.
func (b *bench) scaled(n, min int) int {
	v := int(float64(n) * b.scale)
	if v < min {
		return min
	}
	return v
}

// keepPerLane caps the spans one tracer keeps in memory for the span
// file; every span still counts in the per-layer aggregates.
const keepPerLane = 20000

// lane returns a tracer for one goroutine of a traced round, nil in
// an untraced one.
func (r *roundCtx) lane(b *bench) *tracer {
	if !r.traced {
		return nil
	}
	t := newTracer(b.epoch, keepPerLane)
	r.lanes = append(r.lanes, t)
	return t
}

// roundCtx is what one round fills in; lat holds its per-operation
// latencies, allocated before any round runs.
type roundCtx struct {
	traced bool
	lat    *latencies

	setupS    float64
	phaseS    float64 // foreground phase time (ops_per_s denominator)
	ops       int64   // foreground operations in the phase
	reorgS    float64
	recoveryS float64
	spaceAmp  float64
	writeAmp  float64
	heapMB    float64
	mallocs   uint64
	gcs       uint32
	daemon    map[string]float64 // daemon work in the phase
	ticks     []int64            // wall time of each daemon tick (ns)
	shape     repro.TreeStats    // the tree after the timed phase
	layers    map[string]float64
	lanes     []*tracer

	attempted, failed int64
	giveUps           int64 // scans the program abandoned (see client.scan)
	wrong             []string
}

// wrongf records a result that disagrees with the model or a
// property the method must have.
func (r *roundCtx) wrongf(format string, args ...any) {
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

// account folds a finished client's counts into the round.
func (r *roundCtx) account(c *client) {
	r.attempted += c.ops
	r.failed += c.failed
	if c.mismatches > 0 {
		r.wrongf("%d wrong results, first: %s", c.mismatches, c.firstMismatch)
	}
	if c.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d operations failed, first: %s\n", c.failed, c.firstFailure)
	}
	r.giveUps += c.giveUps
	if c.giveUps > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d scans abandoned by the program and issued again, first: %s\n",
			c.giveUps, c.firstGiveUp)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"ops_per_s", "ops/s"},
	{"get_p50_us", "us"}, {"write_p50_us", "us"},
	{"scan_p50_us", "us"}, {"reorg_s", "s"}, {"recovery_s", "s"},
	{"space_amp", "ratio"}, {"write_amp", "ratio"}, {"live_heap_mb", "MiB"},
}

// tails are printed with every run but left out of the JSON result:
// on this benchmark's reference machine they did not repeat within
// any usable bound (see README).
var tails = []struct{ name, unit string }{{"get_p99_us", "us"}, {"write_p99_us", "us"}}

// perLayer lists the per-layer metrics in report order.
var perLayer = []struct{ name, unit string }{
	{"btree.get_us", "us"}, {"btree.write_us", "us"}, {"btree.scan_us", "us"},
	{"btree.scan_giveups", "count"},
	{"btree.height", "count"}, {"btree.leaf_pages", "count"}, {"btree.leaf_fill", "ratio"},
	{"txn.commit_p50_us", "us"}, {"txn.commit_p99_us", "us"},
	{"wal.forced_writes", "count"}, {"wal.forces_saved", "count"}, {"wal.fsyncs", "count"},
	{"wal.bytes_per_op", "B/op"}, {"wal.bytes_appended", "B"},
	{"lock.user_waits", "count"}, {"lock.user_wait_ms", "ms"},
	{"lock.reorg_waits", "count"}, {"lock.reorg_wait_ms", "ms"},
	{"lock.forgoes", "count"}, {"lock.deadlocks", "count"}, {"repro.retries", "count"},
	{"pool.hit_ratio", "ratio"}, {"pool.misses", "count"}, {"pool.evictions", "count"},
	{"pool.dirty_evictions", "count"},
	{"disk.reads", "count"}, {"disk.writes", "count"}, {"disk.seeks", "count"},
	{"disk.bytes_written", "B"}, {"disk.fsyncs", "count"}, {"storage.checkpoint_s", "s"},
	{"core.pass1_s", "s"}, {"core.pass2_s", "s"}, {"core.pass3_s", "s"},
	{"core.unit_p50_us", "us"}, {"core.unit_p99_us", "us"}, {"core.units", "count"},
	{"core.records_moved", "count"}, {"core.pages_freed", "count"}, {"core.swaps", "count"},
	{"core.units_deadlocked", "count"}, {"core.fsyncs_per_unit", "count"},
	{"sidefile.applied", "count"},
	{"daemon.tick_p50_us", "us"}, {"daemon.tick_p99_us", "us"}, {"daemon.ticks", "count"},
	{"daemon.increments", "count"}, {"daemon.units", "count"}, {"daemon.skips", "count"},
	{"recovery.redo_records", "count"}, {"recovery.losers_undone", "count"},
	{"runtime.allocs_per_op", "count"}, {"runtime.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run parses the arguments, runs the benchmark and prints the report;
// it returns the exit code.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: mixed-mem, reorg-mem or churn-mem")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "nominal length of the timed work")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	dir := fs.String("dir", ".bench_build", "directory for span files")
	scale := fs.Float64("scale", 1, "input-size multiplier (tests only)")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *scale <= 0 {
		return 2, fmt.Errorf("bad arguments: -workload %q -seconds %d -trace %d", *name, *seconds, *trace)
	}
	// Every interval is timed in the CPU time of the thread that does
	// the work (cpuTime), so the goroutine that runs the rounds stays
	// on one thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	res, report, err := execute(mk(), &bench{name: *name, seed: *seed, seconds: *seconds,
		scale: *scale, dataDir: *dir}, *trace == 1)
	if err != nil {
		return 1, err
	}
	fmt.Fprint(out, report)
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return 0, nil
}

// execute runs every round of w and assembles the result and the
// printed report.
func execute(w workload, b *bench, traced bool) (*result, string, error) {
	if err := os.MkdirAll(b.dataDir, 0o755); err != nil {
		return nil, "", err
	}
	w.prepare(b)
	b.epoch = time.Now()
	n := w.rounds(b.seconds)
	// A traced run alternates untraced and traced rounds on the same
	// inputs, so both sets see the same process state and their
	// difference is the tracing overhead.
	plain := make([]*roundCtx, n)
	var tracedRounds []*roundCtx
	for i := range plain {
		plain[i] = &roundCtx{lat: newLatencies(w.samples())}
	}
	if traced {
		tracedRounds = make([]*roundCtx, n)
		for i := range tracedRounds {
			tracedRounds[i] = &roundCtx{lat: newLatencies(w.samples()), traced: true,
				layers: map[string]float64{}}
		}
	}
	for i := 0; i < n; i++ {
		if err := w.round(b, plain[i]); err != nil {
			return nil, "", fmt.Errorf("%s round %d: %w", b.name, i+1, err)
		}
		if traced {
			if err := w.round(b, tracedRounds[i]); err != nil {
				return nil, "", fmt.Errorf("%s traced round %d: %w", b.name, i+1, err)
			}
		}
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var sb strings.Builder
	e2e := endToEndValues(plain)
	fmt.Fprintf(&sb, "perfbench %s seed=%d seconds=%d trace=%v rounds=%d\n", b.name, b.seed, b.seconds, traced, n)
	all := plain
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: e2e[m.name], Unit: m.unit}
		}
		for _, m := range tails {
			fmt.Fprintf(&sb, "  %-24s %16.6g %s (unbounded, not in the result)\n", m.name, e2e[m.name], m.unit)
		}
	} else {
		all = append(append([]*roundCtx(nil), plain...), tracedRounds...)
		te2e := endToEndValues(tracedRounds)
		layers := layerValues(plain, tracedRounds)
		if e2e["ops_per_s"] > 0 {
			layers["trace.overhead_pct"] = 100 * (e2e["ops_per_s"] - te2e["ops_per_s"]) / e2e["ops_per_s"]
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: layers[m.name], Unit: m.unit}
		}
		fmt.Fprintf(&sb, "  end-to-end, untraced vs traced rounds (tracing overhead):\n")
		for _, m := range append(endToEnd, tails...) {
			d := 0.0
			if e2e[m.name] != 0 {
				d = 100 * (te2e[m.name] - e2e[m.name]) / e2e[m.name]
			}
			fmt.Fprintf(&sb, "    %-14s %14.4f %14.4f %-6s %+7.1f%%\n", m.name, e2e[m.name], te2e[m.name], m.unit, d)
		}
		var lanes []*tracer
		for _, r := range tracedRounds {
			lanes = append(lanes, r.lanes...)
		}
		fmt.Fprintf(&sb, "  self time per layer (traced rounds):\n")
		writeSelfTable(&sb, mergeStats(lanes...))
		path := filepath.Join(b.dataDir, fmt.Sprintf("spans-%s-seed%d.json", b.name, b.seed))
		if err := writeSpans(path, lanes); err != nil {
			return nil, "", err
		}
		fmt.Fprintf(&sb, "  spans written to %s\n", path)
	}
	var giveUps int64
	for i, r := range all {
		fmt.Fprintf(&sb, "  round %d traced=%v: setup %.3fs, phase %.3fs, %d ops, reorg %.3fs, recovery %.3fs\n",
			i%n+1, r.traced, r.setupS, r.phaseS, r.ops, r.reorgS, r.recoveryS)
		res.Attempted += r.attempted
		res.Failed += r.failed
		giveUps += r.giveUps
		for _, msg := range r.wrong {
			res.Correct = false
			fmt.Fprintf(&sb, "  WRONG: %s\n", msg)
		}
	}
	if traced {
		res.Metrics["btree.scan_giveups"] = metric{Value: float64(giveUps), Unit: "count"}
	}
	fmt.Fprintf(&sb, "  attempted %d  failed %d  correct %v  scans abandoned and reissued %d\n",
		res.Attempted, res.Failed, res.Correct, giveUps)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	order := map[string]int{}
	for i, m := range endToEnd {
		order[m.name] = i
	}
	for i, m := range perLayer {
		order[m.name] = i
	}
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
	for _, k := range names {
		m := res.Metrics[k]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
			res.Metrics[k] = m
		}
		fmt.Fprintf(&sb, "  %-24s %16.6g %s\n", k, m.Value, m.Unit)
	}
	return res, sb.String(), nil
}

// endToEndValues aggregates the end-to-end metrics over rounds. The
// latency quantiles are taken over the samples of every round pooled
// (a tail needs them all); every other metric is the median of its
// per-round values, so one disturbed round cannot move it.
func endToEndValues(rounds []*roundCtx) map[string]float64 {
	per := map[string][]float64{}
	var get, write, scan []int64
	for _, r := range rounds {
		add := func(name string, v float64) { per[name] = append(per[name], v) }
		add("setup_s", r.setupS)
		if r.phaseS > 0 {
			add("ops_per_s", float64(r.ops)/r.phaseS)
		}
		add("reorg_s", r.reorgS)
		add("recovery_s", r.recoveryS)
		add("space_amp", r.spaceAmp)
		add("write_amp", r.writeAmp)
		add("live_heap_mb", r.heapMB)
		get = append(get, r.lat.get...)
		write = append(write, r.lat.write...)
		scan = append(scan, r.lat.scan...)
	}
	out := map[string]float64{}
	for k, v := range per {
		out[k] = median(v)
	}
	out["get_p50_us"] = quantile(get, 0.50, 1e3)
	out["get_p99_us"] = quantile(get, 0.99, 1e3)
	out["write_p50_us"] = quantile(write, 0.50, 1e3)
	out["write_p99_us"] = quantile(write, 0.99, 1e3)
	out["scan_p50_us"] = quantile(scan, 0.50, 1e3)
	return out
}

// layerValues takes each per-layer metric as the median over the
// traced rounds, except the runtime counters, the daemon's work and
// the tree's shape, which come from the untraced rounds: span
// recording allocates, and the daemon's activity sensor does not see
// mutations made through explicit transactions, so it does different
// work in a traced round and leaves a different tree.
func layerValues(plain, traced []*roundCtx) map[string]float64 {
	out := map[string]float64{}
	vals := map[string][]float64{}
	for _, r := range traced {
		for k, v := range r.layers {
			vals[k] = append(vals[k], v)
		}
	}
	for k, v := range vals {
		out[k] = median(v)
	}
	var allocs, gcs, height, leaves, fill []float64
	var ticks []int64
	daemon := map[string][]float64{}
	for _, r := range plain {
		for k, v := range r.daemon {
			daemon[k] = append(daemon[k], v)
		}
		ticks = append(ticks, r.ticks...)
		height = append(height, float64(r.shape.Height))
		leaves = append(leaves, float64(r.shape.LeafPages))
		fill = append(fill, r.shape.AvgLeafFill)
		if r.ops > 0 {
			allocs = append(allocs, float64(r.mallocs)/float64(r.ops))
		}
		gcs = append(gcs, float64(r.gcs))
	}
	out["runtime.allocs_per_op"] = median(allocs)
	out["runtime.gc_cycles"] = median(gcs)
	out["btree.height"] = median(height)
	out["btree.leaf_pages"] = median(leaves)
	out["btree.leaf_fill"] = median(fill)
	out["daemon.tick_p50_us"] = quantile(ticks, 0.5, 1e3)
	out["daemon.tick_p99_us"] = quantile(ticks, 0.99, 1e3)
	for k, v := range daemon {
		out[k] = median(v)
	}
	return out
}

// spanLayers fills the span-derived per-layer metrics of one traced
// round from its tracers.
func spanLayers(out map[string]float64, lanes ...*tracer) {
	var get, write, scan, commit, unit []int64
	for _, t := range lanes {
		get = append(get, t.samples[spGet]...)
		write = append(write, t.samples[spWrite]...)
		scan = append(scan, t.samples[spScan]...)
		commit = append(commit, t.samples[spCommit]...)
		unit = append(unit, t.samples[spUnit]...)
	}
	out["btree.get_us"] = quantile(get, 0.5, 1e3)
	out["btree.write_us"] = quantile(write, 0.5, 1e3)
	out["btree.scan_us"] = quantile(scan, 0.5, 1e3)
	out["txn.commit_p50_us"] = quantile(commit, 0.5, 1e3)
	out["txn.commit_p99_us"] = quantile(commit, 0.99, 1e3)
	out["core.unit_p50_us"] = quantile(unit, 0.5, 1e3)
	out["core.unit_p99_us"] = quantile(unit, 0.99, 1e3)
	stats := mergeStats(lanes...)
	out["core.pass1_s"] = float64(stats[spPass1].total) / 1e9
	out["core.pass2_s"] = float64(stats[spPass2].total) / 1e9
	out["core.pass3_s"] = float64(stats[spPass3].total) / 1e9
	out["storage.checkpoint_s"] = float64(stats[spCheckpoint].total) / 1e9
}

func init() {
	// One process, at most two goroutines doing work: pin the runtime
	// to the two processors the benchmark is specified for.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
}

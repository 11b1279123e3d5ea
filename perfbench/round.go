package main

import (
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/metrics"
)

// loadBatch is the number of records per InsertBatch call while
// loading (one transaction each).
const loadBatch = 256

// load inserts ids in the given order through batched transactions and
// records each in m.
func load(db *repro.DB, b *bench, ids []uint32, m *model) error {
	keys := make([][]byte, 0, loadBatch)
	vals := make([][]byte, 0, loadBatch)
	buf := make([]byte, loadBatch*valueSize)
	for lo := 0; lo < len(ids); lo += loadBatch {
		hi := min(lo+loadBatch, len(ids))
		keys, vals = keys[:0], vals[:0]
		for j, id := range ids[lo:hi] {
			v := buf[j*valueSize : (j+1)*valueSize]
			b.vals.fill(v, id, m.next+uint32(j))
			keys = append(keys, b.keys.key(id))
			vals = append(vals, v)
		}
		if err := db.InsertBatch(keys, vals); err != nil {
			return fmt.Errorf("load [%d,%d): %w", lo, hi, err)
		}
		for _, id := range ids[lo:hi] {
			m.put(id)
		}
	}
	return nil
}

// phase brackets a timed foreground phase: it collects garbage first,
// then snapshots the database and runtime counters on both sides.
type phase struct {
	db       *repro.DB
	cpu0     time.Duration
	s0, s1   snapshot
	mallocs0 uint64
	gcs0     uint32
}

func beginPhase(db *repro.DB) *phase {
	runtime.GC()
	p := &phase{db: db, s0: takeSnapshot(db)}
	p.mallocs0, p.gcs0 = memCounters()
	p.cpu0 = cpuTime()
	return p
}

// end closes the phase and records its CPU time, operation count and
// runtime counters in r.
func (p *phase) end(r *roundCtx, ops int64) {
	r.phaseS = (cpuTime() - p.cpu0).Seconds()
	r.ops = ops
	mallocs, gcs := memCounters()
	r.mallocs, r.gcs = mallocs-p.mallocs0, gcs-p.gcs0
	p.s1 = takeSnapshot(p.db)
	r.daemon = daemonDeltas(p.s0, p.s1)
	if r.traced {
		layerDeltas(r.layers, p.s0, p.s1, ops)
	}
}

// settle measures the state the timed phase left behind: live heap
// (above base, the heap held before the database was opened), space
// and write amplification, and the tree's shape. logical is every
// logical byte written since Open.
func settle(db *repro.DB, r *roundCtx, m *model, base uint64, logical int64) error {
	if h := heapBytes(); h > base {
		r.heapMB = float64(h-base) / (1 << 20)
	}
	sa, err := spaceAmp(db, m)
	if err != nil {
		return err
	}
	r.spaceAmp = sa
	r.writeAmp = float64(takeSnapshot(db).writtenBytes()) / float64(logical)
	r.shape, err = db.GatherStats()
	return err
}

// recoverAndVerify crashes the database after the timed phase and
// restarts it, timing the restart in CPU time, then checks that every
// acknowledged write survived and nothing else did. One restart a
// round: recovery ends by flushing every page it touched, so a second
// Crash+Restart of the same database skips the redo work the first one
// did (on mixed-mem about 0.16 s against 0.25 s at half size) and is
// not the same measurement.
func recoverAndVerify(db *repro.DB, b *bench, r *roundCtx, tr *tracer, m *model) error {
	runtime.GC()
	db.Crash()
	tr.open(spRestart)
	c0 := cpuTime()
	info, err := db.Restart()
	d := cpuTime() - c0
	tr.close()
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	r.recoveryS = d.Seconds()
	if r.traced {
		r.layers["recovery.redo_records"] = float64(info.RedoneRecords)
		r.layers["recovery.losers_undone"] = float64(info.LosersUndone)
	}
	if err := verifyAll(db, b.vals, m); err != nil {
		r.wrongf("after crash and restart: %v", err)
	}
	return nil
}

// reorganize runs one full three-pass DB.Reorganize and returns the
// CPU time of the thread that ran it (Reorganize works on the calling
// goroutine). In a traced round the
// reorganizer's stage events become pass and unit spans on tr, and the
// core counters land in r.layers.
func reorganize(db *repro.DB, r *roundCtx, tr *tracer) (cpu time.Duration, err error) {
	cfg := repro.DefaultReorgConfig()
	s0 := takeSnapshot(db)
	if tr != nil {
		tr.open(spReorganize)
		cfg.OnEvent = tr.reorgEvents()
	}
	c0 := cpuTime()
	cnt, err := db.Reorganize(cfg)
	cpu = cpuTime() - c0
	if tr != nil {
		tr.endReorg()
		tr.close()
	}
	r.attempted++
	if err != nil {
		return cpu, fmt.Errorf("reorganize: %w", err)
	}
	if r.traced {
		units := cnt.Get(metrics.UnitsCompact) + cnt.Get(metrics.UnitsMove) + cnt.Get(metrics.UnitsSwap)
		r.layers["core.units"] = float64(units)
		r.layers["core.records_moved"] = float64(cnt.Get(metrics.RecordsMoved))
		r.layers["core.pages_freed"] = float64(cnt.Get(metrics.PagesFreed))
		r.layers["core.swaps"] = float64(cnt.Get(metrics.Pass2Swaps))
		r.layers["core.units_deadlocked"] = float64(cnt.Get(metrics.UnitsDeadlocked))
		r.layers["sidefile.applied"] = float64(cnt.Get(metrics.Pass3SideApply))
		if units > 0 {
			r.layers["core.fsyncs_per_unit"] = float64(takeSnapshot(db).fsyncs()-s0.fsyncs()) / float64(units)
		}
	}
	return cpu, nil
}

// finish runs the final structural check and closes db.
func finish(db *repro.DB, b *bench, r *roundCtx, m *model) error {
	if err := verifyAll(db, b.vals, m); err != nil {
		r.wrongf("final scan: %v", err)
	}
	if err := db.Check(); err != nil {
		r.wrongf("DB.Check: %v", err)
	}
	if r.traced {
		spanLayers(r.layers, r.lanes...)
		for _, t := range r.lanes {
			t.dropSamples() // summarised; keep the heap of later rounds unchanged
		}
	}
	return db.Close()
}

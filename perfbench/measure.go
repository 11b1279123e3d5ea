package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"repro"
	"repro/internal/metrics"
)

// quantile returns the nearest-rank q-quantile of s in the given unit
// (ns divided by unit). It sorts s in place; 0 for an empty sample.
func quantile(s []int64, q float64, unit float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	r := int(math.Ceil(q*float64(len(s)))) - 1
	if r < 0 {
		r = 0
	}
	return float64(s[r]) / unit
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// clockThreadCPU is Linux's CLOCK_THREAD_CPUTIME_ID, which package
// syscall does not name.
const clockThreadCPU = 3

// cpuTime is the calling thread's CPU time; the caller must be locked
// to its thread (run locks the main goroutine, and the reorg-mem
// client locks its own). Set-up, the timed phases, restarts,
// reorganizations and daemon ticks are timed with it: on a virtual
// machine whose host steals processor time it stays put while wall
// time drifts, and it leaves out the garbage collector's background
// workers, which run beside the single worker goroutine on the second
// processor (see README, "Time base"). It reads the clock rather than
// getrusage(RUSAGE_THREAD), which lags the running thread by up to a
// scheduler tick.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0 // a valid clock id and pointer cannot fail
	}
	return time.Duration(ts.Nano())
}

// heapBytes collects garbage and returns the live heap.
func heapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// memCounters snapshots the runtime's allocation and GC counts.
func memCounters() (mallocs uint64, gcs uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.NumGC
}

// snapshot is every cumulative counter the database exposes, taken at
// a phase boundary so the phase's share is a difference.
type snapshot struct {
	io                      repro.IOSnapshot
	perf                    map[string]int64
	userWaits, userWaitNs   int64
	reorgWaits, reorgWaitNs int64
	forgoes, deadlocks      int64
	daemon                  map[string]int64
}

func takeSnapshot(db *repro.DB) snapshot {
	ls := db.LockStats()
	s := snapshot{
		io:          db.IOStats(),
		perf:        db.PerfCounters().Snapshot(),
		userWaits:   ls.UserWaits.Load(),
		userWaitNs:  ls.UserWaitNanos.Load(),
		reorgWaits:  ls.ReorgWaits.Load(),
		reorgWaitNs: ls.ReorgWaitNanos.Load(),
		forgoes:     ls.Forgoes.Load(),
		deadlocks:   ls.Deadlocks.Load(),
	}
	if d := db.Daemon(); d != nil {
		s.daemon = d.Metrics().Snapshot()
	}
	return s
}

// layerDeltas fills the counter-based per-layer metrics for the
// interval between a and b; ops is the number of foreground operations
// in it.
func layerDeltas(out map[string]float64, a, b snapshot, ops int64) {
	d := func(name string) float64 { return float64(b.perf[name] - a.perf[name]) }
	out["wal.forced_writes"] = d(metrics.WALForcedWrites)
	out["wal.forces_saved"] = d(metrics.WALForcesSaved)
	out["wal.fsyncs"] = d(metrics.WALFsyncs)
	if ops > 0 {
		out["wal.bytes_per_op"] = d(metrics.WALBytesAppended) / float64(ops)
	}
	out["wal.bytes_appended"] = float64(b.perf[metrics.WALBytesAppended])
	out["lock.user_waits"] = float64(b.userWaits - a.userWaits)
	out["lock.user_wait_ms"] = float64(b.userWaitNs-a.userWaitNs) / 1e6
	out["lock.reorg_waits"] = float64(b.reorgWaits - a.reorgWaits)
	out["lock.reorg_wait_ms"] = float64(b.reorgWaitNs-a.reorgWaitNs) / 1e6
	out["lock.forgoes"] = float64(b.forgoes - a.forgoes)
	out["lock.deadlocks"] = float64(b.deadlocks - a.deadlocks)
	hits, misses := d(metrics.PoolHits), d(metrics.PoolMisses)
	if hits+misses > 0 {
		out["pool.hit_ratio"] = hits / (hits + misses)
	}
	out["pool.misses"] = misses
	out["pool.evictions"] = d(metrics.PoolEvictions)
	out["pool.dirty_evictions"] = d(metrics.PoolDirtyEvictions)
	out["disk.reads"] = float64(b.io.Reads - a.io.Reads)
	out["disk.writes"] = float64(b.io.Writes - a.io.Writes)
	out["disk.seeks"] = float64(b.io.Seeks - a.io.Seeks)
	out["disk.bytes_written"] = float64(b.io.BytesWritten - a.io.BytesWritten)
	out["disk.fsyncs"] = float64(b.io.Fsyncs - a.io.Fsyncs)
}

// daemonDeltas returns the daemon's work between a and b.
func daemonDeltas(a, b snapshot) map[string]float64 {
	d := func(name string) float64 { return float64(b.daemon[name] - a.daemon[name]) }
	return map[string]float64{
		"daemon.ticks":      d(metrics.DaemonTicks),
		"daemon.increments": d(metrics.DaemonIncrements),
		"daemon.units":      d(metrics.DaemonUnits),
		"daemon.skips":      d(metrics.DaemonSkips),
	}
}

// fsyncs is every fsync the database issued, page file and WAL.
func (s snapshot) fsyncs() int64 { return s.io.Fsyncs + s.perf[metrics.WALFsyncs] }

// writtenBytes is the WAL and page volume written since Open.
func (s snapshot) writtenBytes() int64 {
	return s.perf[metrics.WALBytesAppended] + s.io.BytesWritten
}

// spaceAmp is allocated page bytes over live logical bytes.
func spaceAmp(db *repro.DB, m *model) (float64, error) {
	occ, err := db.Occupancy(1)
	if err != nil {
		return 0, err
	}
	return float64(occ.Free.Allocated) * float64(db.PageSize()) / float64(m.liveBytes()), nil
}

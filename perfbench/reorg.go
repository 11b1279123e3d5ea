package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// reorgMem: mem backend with a buffer pool far smaller than the tree.
// Load, sparsify to a quarter with batched delete transactions,
// checkpoint; the timed phase is one full three-pass DB.Reorganize
// while one client runs gets, updates and short scans over the
// survivors, flat out, until the reorganization returns. Every commit
// forces the WAL (group-commit window 0).
type reorgMem struct {
	n         int
	loadIDs   []uint32
	deletes   []uint32 // ascending
	survivors int
	sched     []op // cycled by the client
	m0, m     *model
}

const (
	reorgRecords   = 200_000
	reorgPoolPages = 1024
	reorgKeepPct   = 25
	reorgDeleteTxn = 256 // deletes per sparsify transaction
	reorgSchedLen  = 1 << 16
	reorgScanLen   = 10
	reorgUpdatePct = 15
	reorgScanPct   = 5
	// The client stops after this many operations (a bound on its
	// latency buffers per round), far above what one reorganization
	// takes on the reference machine.
	reorgClientOps = 100_000
	reorgRounds    = 11
)

func (w *reorgMem) rounds(int) int { return reorgRounds }

func (w *reorgMem) samples() sampleCounts {
	return sampleCounts{get: reorgClientOps, write: reorgClientOps, scan: reorgClientOps}
}

func (w *reorgMem) prepare(b *bench) {
	w.n = b.scaled(reorgRecords, 4000)
	b.keys = newKeyTable(w.n)
	b.vals = newValueGen(b.seed)
	rng := rand.New(rand.NewSource(b.seed))
	w.loadIDs = make([]uint32, w.n)
	for i, id := range rng.Perm(w.n) {
		w.loadIDs[i] = uint32(id)
	}
	keep := make([]bool, w.n)
	w.survivors = w.n * reorgKeepPct / 100
	live := newLiveSet(w.n)
	for _, id := range rng.Perm(w.n)[:w.survivors] {
		keep[id] = true
		live.add(uint32(id))
	}
	w.deletes = w.deletes[:0]
	for id := 0; id < w.n; id++ {
		if !keep[id] {
			w.deletes = append(w.deletes, uint32(id))
		}
	}
	sort.Slice(live.ids, func(i, j int) bool { return live.ids[i] < live.ids[j] })
	w.sched = make([]op, reorgSchedLen)
	for i := range w.sched {
		id := live.ids[rng.Intn(len(live.ids))]
		switch p := rng.Intn(100); {
		case p < reorgUpdatePct:
			w.sched[i] = op{opUpdate, id}
		case p < reorgUpdatePct+reorgScanPct:
			w.sched[i] = op{opScan, id}
		default:
			w.sched[i] = op{opGet, id}
		}
	}
	w.m0 = newModel(w.n)
	w.m = newModel(w.n)
}

func (w *reorgMem) round(b *bench, r *roundCtx) error {
	w.m0.cloneInto(w.m)
	m := w.m
	tr := r.lane(b)
	base := heapBytes()

	c0 := cpuTime()
	db, err := repro.Open(repro.Options{BufferPoolPages: reorgPoolPages})
	if err != nil {
		return err
	}
	if err := load(db, b, w.loadIDs, m); err != nil {
		return err
	}
	paused := cpuTime()
	st, err := db.GatherStats()
	if err != nil {
		return err
	}
	loadedLeaves := st.LeafPages
	c0 += cpuTime() - paused // the shape check is not set-up
	if err := w.sparsify(db, b, m); err != nil {
		return err
	}
	tr.open(spCheckpoint)
	err = db.Checkpoint()
	tr.close()
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	r.setupS = (cpuTime() - c0).Seconds()
	logical := int64(w.n)*(keyLen+valueSize) + int64(len(w.deletes))*keyLen

	// The client runs on its own goroutine until the reorganization
	// returns; this goroutine reorganizes. Each is locked to its own
	// thread, so each one's CPU time is read apart.
	c := newClient(db, b, m, r.lat, r.lane(b), reorgScanLen)
	var done atomic.Bool
	var wg sync.WaitGroup
	var clientCPU time.Duration
	p := beginPhase(db)
	wg.Add(1)
	go func() {
		defer wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t0 := cpuTime()
		for i := 0; !done.Load() && i < reorgClientOps; i++ {
			c.do(w.sched[i%len(w.sched)])
		}
		clientCPU = cpuTime() - t0
	}()
	cpu, rerr := reorganize(db, r, tr)
	done.Store(true)
	wg.Wait()
	p.end(r, c.ops)
	r.phaseS = clientCPU.Seconds()
	r.reorgS = cpu.Seconds()
	if rerr != nil {
		return rerr
	}
	r.account(c)
	if r.traced {
		r.layers["repro.retries"] = float64(c.retries)
	}
	if err := settle(db, r, m, base, logical+c.logical); err != nil {
		return err
	}
	// At least as dense as a random load: the reorganized leaf level
	// needs no more pages than the loaded tree would for the survivors.
	bound := int(math.Ceil(float64(loadedLeaves) * float64(m.live) / float64(w.n)))
	if r.shape.LeafPages > bound {
		r.wrongf("reorganized tree has %d leaves, a random load of %d records needs %d", r.shape.LeafPages, m.live, bound)
	}
	if err := recoverAndVerify(db, b, r, tr, m); err != nil {
		return err
	}
	runtime.GC()
	return finish(db, b, r, m)
}

// sparsify deletes every non-survivor in key order, reorgDeleteTxn
// deletes per transaction.
func (w *reorgMem) sparsify(db *repro.DB, b *bench, m *model) error {
	for lo := 0; lo < len(w.deletes); lo += reorgDeleteTxn {
		hi := min(lo+reorgDeleteTxn, len(w.deletes))
		tx := db.Begin()
		for _, id := range w.deletes[lo:hi] {
			if err := tx.Delete(b.keys.key(id)); err != nil {
				_ = tx.Abort() // the delete error is the one to report
				return fmt.Errorf("sparsify: delete %d: %w", id, err)
			}
		}
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("sparsify: commit: %w", err)
		}
		for _, id := range w.deletes[lo:hi] {
			m.del(id)
		}
	}
	return nil
}

package main

import (
	"math/rand"
	"runtime"

	"repro"
)

// mixedMem: mem backend, unbounded pool, about 200k random-loaded
// records, then one client issuing a long uniform mix of gets,
// inserts, updates and 100-key scans. After the mix: space, heap and
// write accounting, Crash+Restart of the whole (never-trimmed) mem
// log, and one quiescent three-pass Reorganize for reorg_s.
type mixedMem struct {
	n       int
	loadIDs []uint32
	sched   []op
	m0, m   *model
}

const (
	mixedRecords   = 200_000
	mixedOpsPerSec = 26_000 // scheduled operations per round per --seconds
	mixedScanLen   = 100
	// Operation mix in percent; the rest are gets.
	mixedInsertPct = 7
	mixedUpdatePct = 8
	mixedScanPct   = 5
)

func (w *mixedMem) rounds(int) int { return 7 }

func (w *mixedMem) samples() sampleCounts { return countOps(w.sched) }

func (w *mixedMem) prepare(b *bench) {
	w.n = b.scaled(mixedRecords, 2000)
	keys := 2 * w.n
	b.keys = newKeyTable(keys)
	b.vals = newValueGen(b.seed)
	rng := rand.New(rand.NewSource(b.seed))
	perm := rng.Perm(keys)
	w.loadIDs = make([]uint32, w.n)
	live := newLiveSet(keys)
	w.m0 = newModel(keys)
	for i := range w.loadIDs {
		id := uint32(perm[i])
		w.loadIDs[i] = id
		live.add(id)
	}
	fresh := perm[w.n:]
	w.sched = make([]op, b.scaled(mixedOpsPerSec*b.seconds, 1000))
	for i := range w.sched {
		p := rng.Intn(100)
		switch {
		case p < mixedInsertPct && len(fresh) > 0:
			id := uint32(fresh[0])
			fresh = fresh[1:]
			live.add(id)
			w.sched[i] = op{opInsert, id}
		case p < mixedInsertPct+mixedUpdatePct:
			w.sched[i] = op{opUpdate, live.pick(rng)}
		case p < mixedInsertPct+mixedUpdatePct+mixedScanPct:
			w.sched[i] = op{opScan, live.pick(rng)}
		default:
			w.sched[i] = op{opGet, live.pick(rng)}
		}
	}
	w.m = newModel(keys)
}

func (w *mixedMem) round(b *bench, r *roundCtx) error {
	w.m0.cloneInto(w.m)
	m := w.m
	tr := r.lane(b)
	base := heapBytes()

	c0 := cpuTime()
	db, err := repro.Open(repro.Options{})
	if err != nil {
		return err
	}
	if err := load(db, b, w.loadIDs, m); err != nil {
		return err
	}
	r.setupS = (cpuTime() - c0).Seconds()
	logical := int64(w.n) * (keyLen + valueSize)

	c := newClient(db, b, m, r.lat, tr, mixedScanLen)
	p := beginPhase(db)
	for _, o := range w.sched {
		c.do(o)
	}
	p.end(r, c.ops)
	r.account(c)
	if r.traced {
		r.layers["repro.retries"] = float64(c.retries)
	}
	if err := settle(db, r, m, base, logical+c.logical); err != nil {
		return err
	}
	if err := recoverAndVerify(db, b, r, tr, m); err != nil {
		return err
	}
	runtime.GC()
	cpu, err := reorganize(db, r, tr)
	if err != nil {
		return err
	}
	r.reorgS = cpu.Seconds()
	return finish(db, b, r, m)
}

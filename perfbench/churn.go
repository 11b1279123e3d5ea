package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro"
	"repro/internal/daemon"
	"repro/internal/metrics"
)

// churnMem: mem backend, one goroutine, about 100k loaded records,
// then delete-heavy waves (the E12 pattern): refill a rotating
// quarter, delete two thirds of it, append a stride-permuted tail
// block, read a sample of live keys. The daemon runs in manual mode,
// ticked every churnTickEvery operations with latency pacing off and
// drained to idle at the end of every wave, so its work per run is
// fixed by the inputs, not by the foreground's speed.
type churnMem struct {
	n     int
	load  []uint32
	sched []op
	m0, m *model
}

const (
	churnRecords   = 100_000
	churnTickEvery = 512  // foreground operations between daemon ticks
	churnReads     = 6000 // gets per wave
	churnScans     = 300  // scans per wave
	churnScanLen   = 20
	churnMaxDrain  = 5000 // ticks one drain may take before the run fails
	churnMaxTicks  = 8192 // tick latencies kept per round without growing
)

func (w *churnMem) rounds(int) int { return 5 }

func (w *churnMem) samples() sampleCounts { return countOps(w.sched) }

func waves(seconds int) int { return (8*seconds + 9) / 10 }

func (w *churnMem) prepare(b *bench) {
	n := b.scaled(churnRecords, 4000)
	w.n = n
	nw := waves(b.seconds)
	block := n / 8
	keys := n + nw*block
	b.keys = newKeyTable(keys)
	b.vals = newValueGen(b.seed)
	rng := rand.New(rand.NewSource(b.seed))
	live := newLiveSet(keys)
	w.load = make([]uint32, n)
	for i, id := range rng.Perm(n) {
		w.load[i] = uint32(id)
		live.add(uint32(id))
	}
	step := 7
	for block%step == 0 || gcd(step, block) != 1 {
		step++
	}
	w.sched = w.sched[:0]
	since := 0
	emit := func(o op) {
		w.sched = append(w.sched, o)
		if since++; since == churnTickEvery {
			w.sched = append(w.sched, op{kind: opTick})
			since = 0
		}
	}
	tail := n
	for wave := 0; wave < nw; wave++ {
		lo, hi := (wave%4)*n/4, (wave%4+1)*n/4
		for id := uint32(lo); id < uint32(hi); id++ {
			if live.has(id) {
				emit(op{opUpdate, id})
			} else {
				emit(op{opInsert, id})
				live.add(id)
			}
		}
		for id := uint32(lo); id < uint32(hi); id++ {
			if id%3 != 0 {
				emit(op{opDelete, id})
				live.remove(id)
			}
		}
		for j := 0; j < block; j++ {
			id := uint32(tail + j*step%block)
			emit(op{opInsert, id})
			live.add(id)
		}
		tail += block
		for j := 0; j < churnReads+churnScans; j++ {
			if rng.Intn(churnReads+churnScans) < churnScans {
				emit(op{opScan, live.pick(rng)})
			} else {
				emit(op{opGet, live.pick(rng)})
			}
		}
		w.sched = append(w.sched, op{kind: opDrain})
		since = 0
	}
	w.m0 = newModel(keys)
	w.m = newModel(keys)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (w *churnMem) round(b *bench, r *roundCtx) error {
	w.m0.cloneInto(w.m)
	m := w.m
	tr := r.lane(b)
	base := heapBytes()

	dcfg := daemon.DefaultConfig()
	dcfg.Manual = true
	dcfg.Ranges = 8
	dcfg.UnitsPerTick = 8
	dcfg.MinLeaves = 2
	dcfg.P99Limit = 0 // latency pacing off: ticks depend on operations only
	c0 := cpuTime()
	db, err := repro.Open(repro.Options{Daemon: &dcfg})
	if err != nil {
		return err
	}
	if err := load(db, b, w.load, m); err != nil {
		return err
	}
	r.setupS = (cpuTime() - c0).Seconds()
	logical := int64(w.n) * (keyLen + valueSize)

	c := newClient(db, b, m, r.lat, tr, churnScanLen)
	d := db.Daemon()
	var tickCPU time.Duration
	r.ticks = make([]int64, 0, churnMaxTicks)
	tick := func() error {
		tr.open(spTick)
		t0, start := cpuTime(), time.Now()
		err := d.Tick()
		r.ticks = append(r.ticks, int64(time.Since(start)))
		tickCPU += cpuTime() - t0
		tr.close()
		return err
	}
	p := beginPhase(db)
	for _, o := range w.sched {
		switch o.kind {
		case opTick:
			if err := tick(); err != nil {
				return fmt.Errorf("daemon tick: %w", err)
			}
		case opDrain:
			for idle, n := 0, 0; idle < 3; n++ {
				if n == churnMaxDrain {
					return fmt.Errorf("daemon not idle after %d ticks", n)
				}
				incs := d.Metrics().Get(metrics.DaemonIncrements)
				if err := tick(); err != nil {
					return fmt.Errorf("daemon drain: %w", err)
				}
				if d.Metrics().Get(metrics.DaemonIncrements) == incs {
					idle++
				} else {
					idle = 0
				}
			}
		default:
			c.do(o)
		}
	}
	p.end(r, c.ops)
	r.reorgS = tickCPU.Seconds()
	r.account(c)
	if r.traced {
		r.layers["repro.retries"] = float64(c.retries)
	}
	if err := settle(db, r, m, base, logical+c.logical); err != nil {
		return err
	}
	floor := dcfg.TargetFill / (1 + dcfg.Slack)
	if r.shape.AvgLeafFill < floor {
		r.wrongf("leaf fill %.4f after the final drain is below the daemon floor %.4f", r.shape.AvgLeafFill, floor)
	}
	if err := recoverAndVerify(db, b, r, tr, m); err != nil {
		return err
	}
	runtime.GC()
	return finish(db, b, r, m)
}

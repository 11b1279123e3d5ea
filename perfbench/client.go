package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro"
)

// maxRetries bounds the traced path's own retry loop, matching the
// auto-commit wrappers' budget.
const maxRetries = 100

// latencies collects one round's per-operation wall times (ns) by
// class. Buffers are allocated before any round runs.
type latencies struct {
	get, write, scan []int64
}

func newLatencies(n sampleCounts) *latencies {
	return &latencies{
		get:   make([]int64, 0, n.get),
		write: make([]int64, 0, n.write),
		scan:  make([]int64, 0, n.scan),
	}
}

// sampleCounts bounds the operations of each class in one round.
type sampleCounts struct{ get, write, scan int }

// countOps counts the operations of each class in a schedule.
func countOps(sched []op) sampleCounts {
	var n sampleCounts
	for _, o := range sched {
		switch o.kind {
		case opGet:
			n.get++
		case opInsert, opUpdate, opDelete:
			n.write++
		case opScan:
			n.scan++
		}
	}
	return n
}

// scanRec is what a scan callback keeps per record: the id in the key
// and the id and version in the value header.
type scanRec struct{ key, valID, ver uint32 }

// client issues operations against one DB from one goroutine, checks
// every result against the model, and records latencies. With tr set
// it runs each operation as an explicit Begin/body/Commit with its own
// retry loop and records spans; otherwise it calls the auto-commit
// wrappers.
type client struct {
	db      *repro.DB
	keys    keyTable
	vals    *valueGen
	m       *model
	lat     *latencies
	tr      *tracer
	scanLen int

	val     []byte // value scratch, rewritten per write
	scanned []scanRec

	ops, failed, retries int64
	giveUps              int64 // scans abandoned by the program and issued again
	firstGiveUp          string
	logical              int64 // logical bytes written
	mismatches           int64
	firstMismatch        string
	firstFailure         string
}

func newClient(db *repro.DB, b *bench, m *model, lat *latencies, tr *tracer, scanLen int) *client {
	return &client{db: db, keys: b.keys, vals: b.vals, m: m, lat: lat, tr: tr,
		scanLen: scanLen, val: make([]byte, valueSize), scanned: make([]scanRec, 0, scanLen)}
}

func (c *client) mismatch(format string, args ...any) {
	c.mismatches++
	if c.firstMismatch == "" {
		c.firstMismatch = fmt.Sprintf(format, args...)
	}
}

// do runs one scheduled database operation.
func (c *client) do(o op) {
	c.ops++
	switch o.kind {
	case opGet:
		c.get(o.arg)
	case opInsert, opUpdate:
		c.put(o.kind, o.arg)
	case opDelete:
		c.del(o.arg)
	case opScan:
		c.scan(o.arg)
	}
}

func (c *client) get(id uint32) {
	k := c.keys.key(id)
	start := time.Now()
	var v []byte
	var err error
	if c.tr == nil {
		v, err = c.db.Get(k)
	} else {
		v, err = c.txn(opGet, k, nil)
	}
	c.lat.get = append(c.lat.get, int64(time.Since(start)))
	want := c.m.ver[id]
	switch {
	case want == 0 && errors.Is(err, repro.ErrNotFound):
	case err != nil:
		c.fail(err)
	case want == 0:
		c.mismatch("get %d: found a value for an absent key", id)
	case !c.vals.check(v, id, want):
		c.mismatch("get %d: value does not match version %d", id, want)
	}
}

func (c *client) put(kind opKind, id uint32) {
	k := c.keys.key(id)
	ver := c.m.next
	c.vals.fill(c.val, id, ver)
	start := time.Now()
	var err error
	switch {
	case c.tr != nil:
		_, err = c.txn(kind, k, c.val)
	case kind == opInsert:
		err = c.db.Insert(k, c.val)
	default:
		err = c.db.Update(k, c.val)
	}
	c.lat.write = append(c.lat.write, int64(time.Since(start)))
	if err != nil {
		c.fail(err)
		return
	}
	c.m.put(id)
	c.logical += keyLen + valueSize
}

func (c *client) del(id uint32) {
	k := c.keys.key(id)
	start := time.Now()
	var err error
	if c.tr == nil {
		err = c.db.Delete(k)
	} else {
		_, err = c.txn(opDelete, k, nil)
	}
	c.lat.write = append(c.lat.write, int64(time.Since(start)))
	if err != nil {
		c.fail(err)
		return
	}
	c.m.del(id)
	c.logical += keyLen
}

// collect is the scan callback: it keeps the identifying headers of up
// to scanLen records. A retried scan restarts at its low key, which
// shows as a key not above the last one kept.
func (c *client) collect(k, v []byte) bool {
	id := uint32(keyID(k))
	if n := len(c.scanned); n > 0 && id <= c.scanned[n-1].key {
		c.scanned = c.scanned[:0]
	}
	r := scanRec{key: id}
	if len(v) >= 8 {
		r.valID = binary.BigEndian.Uint32(v[0:4])
		r.ver = binary.BigEndian.Uint32(v[4:8])
	}
	c.scanned = append(c.scanned, r)
	return len(c.scanned) < c.scanLen
}

// scanGiveUp is the error Tree.Scan returns when it abandons a scan
// after re-seeking past reorganizer-held leaves 1<<22 times. The scan's
// transaction still holds IS locks on the leaves it passed, which the
// reorganizer may be waiting for, so the give-up is how that deadlock
// ends. The client counts it and issues the scan again, like a
// deadlock victim; the give-ups are reported, not hidden (see README).
const scanGiveUp = "btree: scan did not terminate"

func (c *client) scan(lo uint32) {
	k := c.keys.key(lo)
	start := time.Now()
	var err error
	for attempt := 0; attempt < maxRetries; attempt++ {
		c.scanned = c.scanned[:0]
		if c.tr == nil {
			err = c.db.Scan(k, nil, c.collect)
		} else {
			_, err = c.txn(opScan, k, nil)
		}
		if err == nil || !strings.Contains(err.Error(), scanGiveUp) {
			break
		}
		c.giveUps++
		if c.firstGiveUp == "" {
			c.firstGiveUp = fmt.Sprintf("scan from key %d: %v", lo, err)
		}
	}
	c.lat.scan = append(c.lat.scan, int64(time.Since(start)))
	if err != nil {
		c.fail(err)
		return
	}
	id := lo
	for i, r := range c.scanned {
		for int(id) < len(c.m.ver) && c.m.ver[id] == 0 {
			id++
		}
		if int(id) >= len(c.m.ver) {
			c.mismatch("scan from %d: record %d (key %d) past the model's last key", lo, i, r.key)
			return
		}
		if r.key != id || r.valID != id || r.ver != c.m.ver[id] {
			c.mismatch("scan from %d: record %d is key %d v%d, want key %d v%d",
				lo, i, r.key, r.ver, id, c.m.ver[id])
			return
		}
		id++
	}
	if len(c.scanned) < c.scanLen {
		for int(id) < len(c.m.ver) && c.m.ver[id] == 0 {
			id++
		}
		if int(id) < len(c.m.ver) {
			c.mismatch("scan from %d: stopped after %d records, key %d is live", lo, len(c.scanned), id)
		}
	}
}

// fail counts an operation the program refused. It is not a wrong
// answer: the model is left as if the operation never ran.
func (c *client) fail(err error) {
	c.failed++
	if c.firstFailure == "" {
		c.firstFailure = err.Error()
	}
}

// txn is the traced form of one auto-commit call: Begin, the body,
// Commit, and on a retryable error Abort and try again, each retry
// counted. Spans: op → body, commit (or release when read-only).
func (c *client) txn(kind opKind, k, v []byte) ([]byte, error) {
	t := c.tr
	t.open(spOp)
	defer t.close()
	var out []byte
	var err error
	for attempt := 0; ; attempt++ {
		tx := c.db.Begin()
		switch kind {
		case opGet:
			t.open(spGet)
			out, err = tx.Get(k)
		case opInsert:
			t.open(spWrite)
			err = tx.Insert(k, v)
		case opUpdate:
			t.open(spWrite)
			err = tx.Update(k, v)
		case opDelete:
			t.open(spWrite)
			err = tx.Delete(k)
		case opScan:
			t.open(spScan)
			c.scanned = c.scanned[:0]
			err = tx.Scan(k, nil, c.collect)
		}
		t.close()
		if err == nil {
			if kind == opGet || kind == opScan {
				t.open(spRelease)
			} else {
				t.open(spCommit)
			}
			err = tx.Commit()
			t.close()
			if err == nil {
				return out, nil
			}
		}
		_ = tx.Abort() // the error being handled is err; Abort only releases
		if !repro.IsRetryable(err) || attempt+1 >= maxRetries {
			return out, err
		}
		c.retries++
		backoff(attempt)
	}
}

// backoff sleeps between retries like the auto-commit wrappers do,
// without their jitter (one client has nobody to desynchronise from).
func backoff(attempt int) {
	d := time.Duration(attempt) * 100 * time.Microsecond
	if d > 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	time.Sleep(d)
}

// verifyAll compares a full scan of db with the model: every live
// record present with its latest value, nothing else.
func verifyAll(db *repro.DB, vals *valueGen, m *model) error {
	next := 0
	var bad error
	n := 0
	err := db.Scan(nil, nil, func(k, v []byte) bool {
		id := keyID(k)
		if id < 0 || id >= len(m.ver) {
			bad = fmt.Errorf("full scan: unexpected key %q", k)
			return false
		}
		if id < next {
			next, n = 0, 0 // retried from the start
		}
		for next < id {
			if m.ver[next] != 0 {
				bad = fmt.Errorf("full scan: live key %d missing", next)
				return false
			}
			next++
		}
		if m.ver[id] == 0 {
			bad = fmt.Errorf("full scan: deleted key %d present", id)
			return false
		}
		if !vals.check(v, uint32(id), m.ver[id]) {
			bad = fmt.Errorf("full scan: key %d does not hold version %d", id, m.ver[id])
			return false
		}
		next = id + 1
		n++
		return true
	})
	if err != nil {
		return fmt.Errorf("full scan: %w", err)
	}
	if bad != nil {
		return bad
	}
	for ; next < len(m.ver); next++ {
		if m.ver[next] != 0 {
			return fmt.Errorf("full scan: live key %d missing", next)
		}
	}
	if n != m.live {
		return fmt.Errorf("full scan: %d records, model has %d", n, m.live)
	}
	return nil
}

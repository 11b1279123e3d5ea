package main

import (
	"encoding/binary"
	"math/rand"
)

// keyLen is the width of every generated key: "user" plus eight
// zero-padded digits, so byte order equals numeric order.
const keyLen = 12

// valueSize is the width of every generated value: an 8-byte header
// (key id, version) followed by a body taken from a seeded pool.
const valueSize = 48

// keyTable holds every key a run can touch in one flat buffer, built
// before any timed region.
type keyTable struct{ buf []byte }

func newKeyTable(n int) keyTable {
	buf := make([]byte, n*keyLen)
	for i := 0; i < n; i++ {
		k := buf[i*keyLen : (i+1)*keyLen]
		copy(k, "user")
		v := i
		for j := keyLen - 1; j >= 4; j-- {
			k[j] = byte('0' + v%10)
			v /= 10
		}
	}
	return keyTable{buf: buf}
}

// key returns key id as a read-only view (capacity clipped so no
// caller can append into the neighbouring key).
func (t keyTable) key(id uint32) []byte {
	o := int(id) * keyLen
	return t.buf[o : o+keyLen : o+keyLen]
}

// keyID parses the id back out of a generated key (-1 if malformed).
func keyID(k []byte) int {
	if len(k) != keyLen || string(k[:4]) != "user" {
		return -1
	}
	id := 0
	for _, c := range k[4:] {
		if c < '0' || c > '9' {
			return -1
		}
		id = id*10 + int(c-'0')
	}
	return id
}

// valueGen stamps values from a seeded body pool: the value of (id,
// version) is unique, self-identifying and cheap to rebuild or check.
type valueGen struct{ pool []byte }

const bodyLen = valueSize - 8

func newValueGen(seed int64) *valueGen {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	pool := make([]byte, 4096+bodyLen)
	for i := range pool {
		pool[i] = byte('a' + rng.Intn(26))
	}
	return &valueGen{pool: pool}
}

func (g *valueGen) body(id, ver uint32) []byte {
	o := int((id*13 + ver*7) % 4096)
	return g.pool[o : o+bodyLen]
}

// fill writes the value of (id, ver) into dst (len valueSize).
func (g *valueGen) fill(dst []byte, id, ver uint32) {
	binary.BigEndian.PutUint32(dst[0:4], id)
	binary.BigEndian.PutUint32(dst[4:8], ver)
	copy(dst[8:], g.body(id, ver))
}

// check reports whether v is exactly the value of (id, ver).
func (g *valueGen) check(v []byte, id, ver uint32) bool {
	return len(v) == valueSize &&
		binary.BigEndian.Uint32(v[0:4]) == id &&
		binary.BigEndian.Uint32(v[4:8]) == ver &&
		string(v[8:]) == string(g.body(id, ver))
}

// model is the benchmark's view of the live records: ver[id] is the
// version of the record stored under key id, 0 when absent. Versions
// come from one counter, so no two writes ever store the same value.
type model struct {
	ver  []uint32
	next uint32
	live int
}

func newModel(keys int) *model { return &model{ver: make([]uint32, keys), next: 1} }

// cloneInto copies m into dst, reusing dst's storage (no allocation
// once dst is sized), so each round starts from the same state.
func (m *model) cloneInto(dst *model) {
	copy(dst.ver, m.ver)
	dst.next, dst.live = m.next, m.live
}

// put records a successful insert or update: the key now holds the
// next version.
func (m *model) put(id uint32) {
	if m.ver[id] == 0 {
		m.live++
	}
	m.ver[id] = m.next
	m.next++
}

func (m *model) del(id uint32) {
	if m.ver[id] != 0 {
		m.live--
	}
	m.ver[id] = 0
}

// liveBytes is the logical size of the live records.
func (m *model) liveBytes() int64 { return int64(m.live) * (keyLen + valueSize) }

// opKind is one foreground operation of a pre-generated schedule.
type opKind uint8

const (
	opGet opKind = iota
	opInsert
	opUpdate
	opDelete
	opScan
	// opTick and opDrain are not database calls: opTick ticks the
	// manual daemon once, opDrain ticks it until three ticks in a row
	// start no increment.
	opTick
	opDrain
)

// op is one scheduled operation; arg is the key id (the first key for
// a scan, whose width is fixed per workload).
type op struct {
	kind opKind
	arg  uint32
}

// liveSet tracks present ids during schedule generation, with O(1)
// uniform choice, insert and delete.
type liveSet struct {
	ids []uint32
	pos []int32 // index in ids, -1 when absent
}

func newLiveSet(keys int) *liveSet {
	s := &liveSet{pos: make([]int32, keys)}
	for i := range s.pos {
		s.pos[i] = -1
	}
	return s
}

func (s *liveSet) has(id uint32) bool { return s.pos[id] >= 0 }

func (s *liveSet) add(id uint32) {
	if s.has(id) {
		return
	}
	s.pos[id] = int32(len(s.ids))
	s.ids = append(s.ids, id)
}

func (s *liveSet) remove(id uint32) {
	p := s.pos[id]
	if p < 0 {
		return
	}
	last := s.ids[len(s.ids)-1]
	s.ids[p] = last
	s.pos[last] = p
	s.ids = s.ids[:len(s.ids)-1]
	s.pos[id] = -1
}

func (s *liveSet) pick(rng *rand.Rand) uint32 { return s.ids[rng.Intn(len(s.ids))] }

package core

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"mdacache/internal/isa"
)

// overlapRig is a set of cores whose windows are driven directly through
// enter/retire — no caches, no event queue — so the occupancy index can be
// checked against the window-scan predicate after every step.
type overlapRig struct {
	t    testing.TB
	cpus []*CPU
	occ  *occIndex
}

func newOverlapRig(t testing.TB, cores int) *overlapRig {
	r := &overlapRig{t: t}
	var g *coreGroup
	if cores > 1 {
		g = &coreGroup{}
	}
	for i := 0; i < cores; i++ {
		c := NewCPU(nil, nil, 128)
		if g != nil {
			c.group = g
			c.occ = &g.occ
		}
		r.cpus = append(r.cpus, c)
	}
	if g != nil {
		g.cpus = r.cpus
	}
	r.occ = r.cpus[0].occ
	return r
}

// oracle is the exact window scan over every core: the predicate the
// occupancy index replaces.
func (r *overlapRig) oracle(op isa.Op) bool {
	for _, c := range r.cpus {
		if c.windowConflicts(op) {
			return true
		}
	}
	return false
}

// probe asserts that core c's verdict on op equals the oracle's, and that
// the index alone agrees whenever its answer is meant to be exact.
func (r *overlapRig) probe(c int, op isa.Op) {
	r.t.Helper()
	want := r.oracle(op)
	w := wordsOf(op)
	if got := r.cpus[c].conflicts(op, w); got != want {
		r.t.Fatalf("conflicts(%v) on cpu%d = %v, window scan says %v", op, c, got, want)
	}
	if w.mask != 0 && r.occ.irregular == 0 {
		if got := r.occ.conflicts(w); got != want {
			r.t.Fatalf("index verdict on %v = %v, window scan says %v", op, got, want)
		}
	}
}

// check recomputes the index from the windows and compares: the same tiles
// and op lists, the same masks (or supersets, on a stale tile), the same
// irregular count, every tile reachable from its home entry.
func (r *overlapRig) check() {
	r.t.Helper()
	type masks struct {
		stores, any uint64
		ops         int
	}
	want := map[uint64]masks{}
	irregular := 0
	for _, c := range r.cpus {
		for i, s := range c.inflight {
			if s.wi != i {
				r.t.Fatalf("slot at window index %d records index %d", i, s.wi)
			}
			w := wordsOf(s.op)
			if w.mask == 0 {
				irregular++
				continue
			}
			m := want[w.tile]
			m.ops++
			m.any |= w.mask
			if w.store {
				m.stores |= w.mask
			}
			want[w.tile] = m
		}
	}
	x := r.occ
	if x.irregular != irregular {
		r.t.Fatalf("index counts %d irregular ops, windows hold %d", x.irregular, irregular)
	}
	if x.live != len(want) {
		r.t.Fatalf("index holds %d tiles, windows touch %d", x.live, len(want))
	}
	for tile, m := range want {
		i := x.lookup(tile | 1)
		if i < 0 {
			r.t.Fatalf("tile %#x in flight but not in the index", tile)
		}
		e := x.tab[i]
		n := 0
		for p := e.ops; p != nil; p = p.tnext {
			if p.words.tile != tile || p.tnext != nil && p.tnext.tprev != p {
				r.t.Fatalf("tile %#x op list is broken at %v", tile, p.op)
			}
			n++
		}
		if n != m.ops {
			r.t.Fatalf("tile %#x lists %d ops, windows hold %d", tile, n, m.ops)
		}
		// Stale masks may over-approximate; fresh ones must be exact.
		if e.stores&m.stores != m.stores || e.any&m.any != m.any ||
			!e.stale && (e.stores != m.stores || e.any != m.any) {
			r.t.Fatalf("tile %#x masks stores=%#x any=%#x (stale %v), want %#x %#x",
				tile, e.stores, e.any, e.stale, m.stores, m.any)
		}
	}
}

// overlapAction is one step of a differential run, decoded from 4 bytes:
// b0 picks the step (issue, probe, retire) and the core; b1-b2 the tile,
// line and word; b3 the kind, orientation, size and irregularity.
func (r *overlapRig) step(b [4]byte) {
	r.t.Helper()
	c := int(b[0]>>2) % len(r.cpus)
	cpu := r.cpus[c]
	if b[0]&3 == 3 {
		if n := len(cpu.inflight); n > 0 {
			cpu.retire(cpu.inflight[int(b[1])%n])
			r.check()
		}
		return
	}
	op := overlapOp(b[1], b[2], b[3])
	r.probe(c, op)
	if b[0]&3 != 2 && len(cpu.inflight) < cpu.window {
		// Issue even a conflicting op: the index must stay exact for any
		// set of in-flight ops, not only for the ones pump would allow.
		cpu.enter(op)
		r.check()
	}
}

// overlapOp builds an op in one of a few tiles (two of them far apart, to
// spread the hash table), crowding ops into the same tiles and lines.
func overlapOp(b1, b2, b3 byte) isa.Op {
	tiles := [...]uint64{0x1000, 0x1200, 0x1400, 0x7f_ffff_fe00, 0x4000_0000}
	tile := tiles[int(b1>>3)%len(tiles)]
	if b1&4 != 0 {
		tile += uint64(b2) << 9 // many tiles: grows the table
	}
	line, word := uint64(b2&7), uint64(b2>>3&7)
	op := isa.Op{Orient: isa.Orient(b3 & 1), Vector: b3&2 != 0}
	if b3&4 != 0 {
		op.Kind = isa.Store
	}
	irregular := b3&0xf0 == 0xf0 // 1 in 16
	switch {
	case op.Vector && op.Orient == isa.Row:
		op.Addr = tile + line*isa.LineSize
	case op.Vector:
		op.Addr = tile + line*isa.WordSize
	default:
		op.Addr = tile + line*isa.LineSize + word*isa.WordSize
	}
	if irregular {
		if op.Vector {
			op.Addr += isa.LineSize + isa.WordSize // a non-canonical base
		} else {
			op.Addr += uint64(b3&7) | 1 // an unaligned scalar
		}
	}
	return op
}

func runOverlap(t testing.TB, cores int, data []byte) {
	r := newOverlapRig(t, cores)
	for len(data) >= 4 {
		r.step([4]byte(data))
		data = data[4:]
	}
	// Drain: every retire must leave the index exact, ending empty.
	for _, c := range r.cpus {
		for len(c.inflight) > 0 {
			c.retire(c.inflight[0])
			r.check()
		}
	}
	if r.occ.live != 0 || r.occ.irregular != 0 {
		t.Fatalf("drained index holds %d tiles, %d irregular ops", r.occ.live, r.occ.irregular)
	}
}

// TestOverlapIndexMatchesWindowScan drives seeded random issue/retire
// sequences — scalar and vector ops of both orientations crowded into a few
// tiles, some unaligned or non-canonical — through the occupancy index on 1
// core and on 4 cores sharing it, checking every verdict against the window
// scan and the index's contents against the windows.
func TestOverlapIndexMatchesWindowScan(t *testing.T) {
	for _, cores := range []int{1, 4} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			data := make([]byte, 4*4000)
			rng.Read(data)
			// Bias toward issuing so windows fill up.
			for i := 0; i < len(data); i += 4 {
				if data[i]&3 == 3 && rng.Intn(3) > 0 {
					data[i] &^= 2
				}
			}
			runOverlap(t, cores, data)
		}
	}
}

// FuzzOverlapIndex is the open-ended form of the differential test: any
// byte string is an issue/probe/retire sequence on 1 or 4 cores.
func FuzzOverlapIndex(f *testing.F) {
	seed := make([]byte, 0, 64)
	for i := 0; i < 16; i++ {
		seed = binary.LittleEndian.AppendUint32(seed, uint32(i)*0x9E3779B9)
	}
	f.Add(false, seed)
	f.Add(true, seed)
	f.Fuzz(func(t *testing.T, multi bool, data []byte) {
		cores := 1
		if multi {
			cores = 4
		}
		runOverlap(t, cores, data)
	})
}

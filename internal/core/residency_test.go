package core

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"mdacache/internal/isa"
	"mdacache/internal/sim"
)

// sinkBackend absorbs writebacks and serves zero lines, allocating nothing:
// the residency tests drive Cache1P's install and evict paths directly and
// only need somewhere to send dirty victims.
type sinkBackend struct{}

func (sinkBackend) Fill(uint64, isa.LineID, func(uint64, *[isa.WordsPerLine]uint64)) {}
func (sinkBackend) Writeback(uint64, isa.LineID, uint8, [isa.WordsPerLine]uint64)    {}
func (sinkBackend) Peek(isa.LineID) (d [isa.WordsPerLine]uint64)                     { return d }

// residencyCache builds a small logically-2-D Cache1P over a sinkBackend.
func residencyCache(t testing.TB, mapping SetMapping, size, assoc int) *Cache1P {
	t.Helper()
	c, err := NewCache1P(&sim.EventQueue{}, CacheParams{
		Name: "L1", SizeBytes: size, Assoc: assoc,
		TagLat: 2, DataLat: 2, MSHRs: 4, Mapping: mapping,
	}, true, sinkBackend{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// scanIntersecting is the crossing-line walk the residency index replaced:
// probe all 8 lines of the other orientation in id's tile, in index order.
// It is the oracle for intersectingDo.
func scanIntersecting(c *Cache1P, id isa.LineID) []int {
	other := id.Orient.Other()
	if c.orientCount[other] == 0 {
		return nil
	}
	var ways []int
	tile := id.Tile()
	for i := uint64(0); i < isa.LinesPerTile; i++ {
		mid := isa.LineID{Base: tile + i*isa.WordSize, Orient: isa.Col}
		if other == isa.Row {
			mid = isa.LineID{Base: tile + i*isa.LineSize, Orient: isa.Row}
		}
		if m := c.find(mid); m >= 0 {
			ways = append(ways, m)
		}
	}
	return ways
}

// residencyRig drives one cache through install, evict, invalidate and
// duplicate-evict steps decoded from bytes, checking the residency index
// against the keys after every step and every walk against the oracle.
type residencyRig struct {
	t   testing.TB
	c   *Cache1P
	now uint64
}

// check asserts that the index, once built, holds exactly one entry per
// tile with a resident line, whose mask is the brute-force mask of the keys,
// and that every entry is reachable from its home.
func (r *residencyRig) check() {
	r.t.Helper()
	x := &r.c.res
	if x.tab == nil {
		return
	}
	want := map[uint64]uint16{}
	for _, k := range r.c.keys {
		if k != 0 {
			id := keyID(k)
			want[id.Tile()] |= resBit(id)
		}
	}
	if x.live != len(want) {
		r.t.Fatalf("index holds %d tiles, keys hold %d", x.live, len(want))
	}
	n := 0
	for _, e := range x.tab {
		if e.key != 0 {
			n++
		}
	}
	if n != x.live {
		r.t.Fatalf("index has %d occupied entries but counts %d", n, x.live)
	}
	for tile, m := range want {
		if got := x.mask(tile); got != m {
			r.t.Fatalf("tile %#x mask %#04x, keys say %#04x", tile, got, m)
		}
	}
}

// walk compares intersectingDo with the oracle walk. With evict set, the
// callback evicts every visited way as the Fig. 9 duplicate policy does;
// the oracle's list is taken first, since each callback drops only the line
// it visits.
func (r *residencyRig) walk(id isa.LineID, evict bool) {
	r.t.Helper()
	want := scanIntersecting(r.c, id)
	var got []int
	r.c.intersectingDo(id, func(m int) {
		got = append(got, m)
		if evict {
			r.c.evictDuplicate(r.now, m)
		}
	})
	if len(got) != len(want) {
		r.t.Fatalf("walk of %v visits ways %v, 8-probe walk visits %v", id, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			r.t.Fatalf("walk of %v visits ways %v, 8-probe walk visits %v", id, got, want)
		}
	}
}

// residencyLine builds a canonical line in one of a few tiles (two far
// apart, and a run of neighbours to grow the table), crowding lines of both
// orientations into the same tiles and sets.
func residencyLine(b1, b2 byte) isa.LineID {
	tiles := [...]uint64{0, 0x1000, 0x1200, 0x7f_ffff_fe00, 0x4000_0000}
	tile := tiles[int(b1>>4)%len(tiles)]
	if b1&8 != 0 {
		tile += uint64(b2>>4) << 9
	}
	i := uint64(b1 & 7)
	if b2&1 == 0 {
		return isa.LineID{Base: tile + i*isa.LineSize, Orient: isa.Row}
	}
	return isa.LineID{Base: tile + i*isa.WordSize, Orient: isa.Col}
}

// step runs one action decoded from 3 bytes: b0 the action, b1-b2 the line
// (and, for writebacks, b2 the word mask).
func (r *residencyRig) step(b [3]byte) {
	r.t.Helper()
	c := r.c
	r.now++
	id := residencyLine(b[1], b[2])
	var data [isa.WordsPerLine]uint64
	switch b[0] % 8 {
	case 0, 1: // install, clean or dirty, evicting a victim when the set is full
		c.install(r.now, id, &data, b[0]>>3, 0, false)
	case 2: // invalidate a resident line
		if w := c.find(id); w >= 0 {
			c.invalidateLine(r.now, w)
		}
	case 3: // walk only (the first one past the orientCount exit builds the index)
		r.walk(id, false)
	case 4: // duplicate-evict walk, as a vector store does
		r.walk(id, true)
	case 5: // a writeback from above: masked crossing lines go, then install
		r.walk(id, false)
		c.Writeback(r.now, id, b[2]|1, data)
	case 6: // a remote write: snoop-invalidate the copies of the masked words
		c.snoopInvalidate(r.now, id, b[2])
	case 7: // dual-orientation churn: install the crossing line of word b0>>5
		cross := isa.LineOf(id.WordAddr(uint(b[0]>>5)), id.Orient.Other())
		c.install(r.now, cross, &data, 0, 0, false)
	}
	r.check()
}

// runResidency runs data through a 2-way and a 4-way cache under one
// mapping and returns how many of them built the index.
func runResidency(t testing.TB, sameSet bool, data []byte) (built int) {
	mapping := DifferentSet
	if sameSet {
		mapping = SameSet
	}
	for _, shape := range [][2]int{{2 * KB, 2}, {4 * KB, 4}} {
		r := &residencyRig{t: t, c: residencyCache(t, mapping, shape[0], shape[1])}
		for d := data; len(d) >= 3; d = d[3:] {
			r.step([3]byte(d))
		}
		// Empty the cache: every invalidate must leave the index exact.
		for w, k := range r.c.keys {
			if k != 0 {
				r.c.invalidateLine(r.now, w)
				r.check()
			}
		}
		if r.c.res.tab != nil {
			built++
			if r.c.res.live != 0 {
				t.Fatalf("empty cache's index holds %d tiles", r.c.res.live)
			}
		}
	}
	return built
}

// TestTileResidencyMatchesKeys drives seeded random install, evict,
// invalidate and duplicate-evict sequences through small logically-2-D
// Cache1Ps under both mappings, checking the residency index against a
// brute-force scan of the keys after every step and every crossing-line
// walk against the 8-probe walk it replaced.
func TestTileResidencyMatchesKeys(t *testing.T) {
	for _, sameSet := range []bool{false, true} {
		for seed := int64(1); seed <= 8; seed++ {
			data := make([]byte, 3*3000)
			rand.New(rand.NewSource(seed)).Read(data)
			if built := runResidency(t, sameSet, data); built != 2 {
				t.Fatalf("seed %d: only %d of 2 caches built the index", seed, built)
			}
		}
	}
}

// FuzzTileResidency is the open-ended form of the differential test: any
// byte string is an install/evict/walk sequence under either mapping.
func FuzzTileResidency(f *testing.F) {
	seed := make([]byte, 0, 96)
	for i := 0; i < 24; i++ {
		seed = binary.LittleEndian.AppendUint32(seed, uint32(i)*0x9E3779B9)
	}
	f.Add(false, seed)
	f.Add(true, seed)
	f.Fuzz(func(t *testing.T, sameSet bool, data []byte) {
		runResidency(t, sameSet, data)
	})
}

// TestIntersectingWalkAllocFree pins that, once the residency index is
// built and grown to its working size, steady-state churn across both
// orientations — writebacks that evict crossing duplicates and victims,
// installs of the crossing lines, and peeks that walk them — allocates
// nothing.
func TestIntersectingWalkAllocFree(t *testing.T) {
	c := residencyCache(t, DifferentSet, 8*KB, 4)
	var data [isa.WordsPerLine]uint64
	now := uint64(0)
	churn := func() {
		// Two lines in each of 96 tiles: more than the 128 the cache holds,
		// so every pass evicts, and tiles enter and leave the table.
		for tile := uint64(0); tile < 96; tile++ {
			now++
			// Line index tile/4 spreads the tiles over all 32 sets.
			base, i := tile<<9, tile/4%8
			row := isa.LineID{Base: base + i*isa.LineSize, Orient: isa.Row}
			col := isa.LineID{Base: base + i*isa.WordSize, Orient: isa.Col}
			c.Writeback(now, row, 0xff, data)
			c.Writeback(now, col, uint8(1)<<i, data) // evicts the dirty row
			c.install(now, row, &data, 0, 0, false)
			_ = c.Peek(row)
			_ = c.Peek(col)
		}
	}
	for i := 0; i < 4; i++ {
		churn()
	}
	if c.stats.Evictions == 0 || c.stats.DuplicateEvictions == 0 {
		t.Fatalf("churn made %d evictions and %d duplicate evictions, want both", c.stats.Evictions, c.stats.DuplicateEvictions)
	}
	if len(c.res.tab) <= 64 {
		t.Fatalf("residency index has %d entries: churn never built and grew it", len(c.res.tab))
	}
	if n := testing.AllocsPerRun(20, churn); n != 0 {
		t.Fatalf("crossing-line churn allocates %v times per pass, want 0", n)
	}
}

package core

import (
	"errors"
	"testing"

	"mdacache/internal/isa"
	"mdacache/internal/mem"
	"mdacache/internal/sim"
)

// stubBackend is a controllable backend for cache unit tests: fixed fill
// latency, functional store, and full call recording.
type stubBackend struct {
	q       *sim.EventQueue
	store   *mem.Store
	latency uint64

	fills      []isa.LineID
	writebacks []stubWB
}

type stubWB struct {
	line isa.LineID
	mask uint8
	data [isa.WordsPerLine]uint64
}

func newStub(q *sim.EventQueue) *stubBackend {
	return &stubBackend{q: q, store: mem.NewStore(), latency: 100}
}

func (s *stubBackend) Fill(at uint64, line isa.LineID, done func(uint64, *[isa.WordsPerLine]uint64)) {
	s.fills = append(s.fills, line)
	data := s.store.ReadLine(line)
	s.q.Schedule(at+s.latency, func() { done(s.q.Now(), &data) })
}

func (s *stubBackend) Writeback(at uint64, line isa.LineID, mask uint8, data [isa.WordsPerLine]uint64) {
	s.writebacks = append(s.writebacks, stubWB{line, mask, data})
	s.store.WriteLine(line, mask, data)
}

func (s *stubBackend) Peek(line isa.LineID) [isa.WordsPerLine]uint64 {
	return s.store.ReadLine(line)
}

func test1P2L(t *testing.T, mapping SetMapping) (*sim.EventQueue, *Cache1P, *stubBackend) {
	t.Helper()
	q := &sim.EventQueue{}
	stub := newStub(q)
	c, err := NewCache1P(q, CacheParams{
		Name: "L1", SizeBytes: 2 * KB, Assoc: 2,
		TagLat: 2, DataLat: 2, MSHRs: 4, Mapping: mapping,
	}, true, stub)
	if err != nil {
		t.Fatal(err)
	}
	return q, c, stub
}

// access drives one op synchronously to completion.
func access(t *testing.T, q *sim.EventQueue, c Level, op isa.Op) (uint64, uint64) {
	t.Helper()
	var doneAt, val uint64
	got := false
	c.CPUAccess(q.Now(), op, func(at, v uint64) { doneAt, val, got = at, v, true })
	q.Run(0)
	if !got {
		t.Fatalf("op %v never completed", op)
	}
	return doneAt, val
}

func scalarLoad(addr uint64, o isa.Orient) isa.Op {
	return isa.Op{Addr: addr, Orient: o}
}
func scalarStore(addr uint64, o isa.Orient, v uint64) isa.Op {
	return isa.Op{Addr: addr, Orient: o, Kind: isa.Store, Value: v}
}
func vectorLoad(line isa.LineID) isa.Op {
	return isa.Op{Addr: line.Base, Orient: line.Orient, Vector: true}
}
func vectorStore(line isa.LineID, v uint64) isa.Op {
	return isa.Op{Addr: line.Base, Orient: line.Orient, Vector: true, Kind: isa.Store, Value: v}
}

func TestScalarMissFillsPreferredOrientation(t *testing.T) {
	q, c, stub := test1P2L(t, DifferentSet)
	stub.store.WriteWord(0x40, 42)
	_, v := access(t, q, c, scalarLoad(0x40, isa.Col))
	if v != 42 {
		t.Fatalf("loaded %d", v)
	}
	if len(stub.fills) != 1 || stub.fills[0].Orient != isa.Col {
		t.Fatalf("fill orientation: %v", stub.fills)
	}
	if c.stats.Misses != 1 {
		t.Fatalf("misses = %d", c.stats.Misses)
	}
}

func TestScalarHitIgnoresAlignment(t *testing.T) {
	// §IV-B(b): a scalar hit is presence of the word, regardless of the
	// line's orientation.
	q, c, _ := test1P2L(t, DifferentSet)
	access(t, q, c, vectorLoad(isa.LineOf(0x40, isa.Row))) // bring row line
	before := c.stats.Misses
	_, _ = access(t, q, c, scalarLoad(0x40, isa.Col)) // col-preferring scalar
	if c.stats.Misses != before {
		t.Fatal("scalar access should hit the row-oriented copy")
	}
	if c.stats.HitsWrongOrient != 1 {
		t.Fatalf("wrong-orient hits = %d", c.stats.HitsWrongOrient)
	}
}

func TestWrongOrientHitIsSlower(t *testing.T) {
	q, c, _ := test1P2L(t, DifferentSet)
	row := isa.LineOf(0x40, isa.Row)
	access(t, q, c, vectorLoad(row))
	t0 := q.Now()
	doneRight, _ := access(t, q, c, scalarLoad(0x40, isa.Row))
	rightLat := doneRight - t0
	t1 := q.Now()
	doneWrong, _ := access(t, q, c, scalarLoad(0x48, isa.Col)) // same row line, col pref
	wrongLat := doneWrong - t1
	if wrongLat <= rightLat {
		t.Fatalf("wrong-orient hit (%d) should cost more than preferred (%d)", wrongLat, rightLat)
	}
}

func TestVectorHitRequiresAlignment(t *testing.T) {
	// §IV-B(b): vector accesses need the correctly-aligned block.
	q, c, stub := test1P2L(t, DifferentSet)
	// Fill all 8 column lines of tile 0: every word present.
	for i := uint64(0); i < 8; i++ {
		access(t, q, c, vectorLoad(isa.LineID{Base: i * isa.WordSize, Orient: isa.Col}))
	}
	nf := len(stub.fills)
	access(t, q, c, vectorLoad(isa.LineID{Base: 0, Orient: isa.Row}))
	if len(stub.fills) != nf+1 {
		t.Fatal("row vector over resident columns must still miss")
	}
}

func TestDuplicationAllowedWhenClean(t *testing.T) {
	q, c, _ := test1P2L(t, DifferentSet)
	access(t, q, c, vectorLoad(isa.LineID{Base: 0, Orient: isa.Row}))
	access(t, q, c, vectorLoad(isa.LineID{Base: 0, Orient: isa.Col}))
	rows, cols := c.Occupancy()
	if rows != 1 || cols != 1 {
		t.Fatalf("expected clean duplicates to coexist: rows=%d cols=%d", rows, cols)
	}
}

func TestWriteToDuplicateEvictsOtherCopy(t *testing.T) {
	// Fig. 9: Clean → Invalid on "write to duplicate".
	q, c, _ := test1P2L(t, DifferentSet)
	access(t, q, c, vectorLoad(isa.LineID{Base: 0, Orient: isa.Row}))
	access(t, q, c, vectorLoad(isa.LineID{Base: 0, Orient: isa.Col}))
	// Store to the intersection word (0,0) via the row copy.
	access(t, q, c, scalarStore(0, isa.Row, 7))
	rows, cols := c.Occupancy()
	if cols != 0 {
		t.Fatalf("column duplicate not evicted: rows=%d cols=%d", rows, cols)
	}
	if c.stats.DuplicateEvictions != 1 {
		t.Fatalf("duplicate evictions = %d", c.stats.DuplicateEvictions)
	}
	// The surviving copy holds the stored value.
	_, v := access(t, q, c, scalarLoad(0, isa.Row))
	if v != 7 {
		t.Fatalf("loaded %d after store", v)
	}
}

func TestModifiedFlushedBeforeDuplicateFill(t *testing.T) {
	// Fig. 9: Modified → Clean (writeback) on "read to duplicate".
	q, c, stub := test1P2L(t, DifferentSet)
	access(t, q, c, vectorStore(isa.LineID{Base: 0, Orient: isa.Row}, 100)) // dirty row
	nwb := len(stub.writebacks)
	// Vector load of the crossing column forces the dirty row to be
	// written back before (or with) the fill, and the fill must see word
	// (0,0) = 100.
	_, v := access(t, q, c, vectorLoad(isa.LineID{Base: 0, Orient: isa.Col}))
	if v != 100 {
		t.Fatalf("column fill observed stale intersection: %d", v)
	}
	if len(stub.writebacks) <= nwb {
		t.Fatal("modified intersecting row was not flushed")
	}
	if c.stats.DuplicateFlushes == 0 {
		t.Fatal("duplicate flush not counted")
	}
}

func TestPerWordDirtyMaskWriteback(t *testing.T) {
	// §IV-C: per-word dirty bits limit writeback bandwidth.
	q, c, stub := test1P2L(t, DifferentSet)
	access(t, q, c, vectorLoad(isa.LineID{Base: 0, Orient: isa.Row}))
	access(t, q, c, scalarStore(0x10, isa.Row, 5)) // dirty word 2 only
	c.Drain(q.Now())
	q.Run(0)
	last := stub.writebacks[len(stub.writebacks)-1]
	if last.mask != 0b100 {
		t.Fatalf("writeback mask = %08b, want word 2 only", last.mask)
	}
	if last.data[2] != 5 {
		t.Fatalf("writeback data = %v", last.data)
	}
}

func TestVectorStoreAllocatesWithoutFetch(t *testing.T) {
	q, c, stub := test1P2L(t, DifferentSet)
	access(t, q, c, vectorStore(isa.LineID{Base: 0x200, Orient: isa.Row}, 50))
	if len(stub.fills) != 0 {
		t.Fatal("full-line store must not fetch the line")
	}
	_, v := access(t, q, c, scalarLoad(0x208, isa.Row))
	if v != 51 { // payload word 1 = Value+1
		t.Fatalf("loaded %d", v)
	}
}

func TestMSHRCoalescesColumnMisses(t *testing.T) {
	// "many misses to the same column are combined into one column access
	// in the MSHR" (§VII).
	q := &sim.EventQueue{}
	stub := newStub(q)
	c, err := NewCache1P(q, CacheParams{
		Name: "L1", SizeBytes: 2 * KB, Assoc: 2,
		TagLat: 2, DataLat: 2, MSHRs: 4, Mapping: DifferentSet,
	}, true, stub)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for w := uint64(0); w < 4; w++ {
		// Four scalar column-preferring loads down column 0 of tile 0.
		c.CPUAccess(0, scalarLoad(w*isa.LineSize, isa.Col), func(uint64, uint64) { done++ })
	}
	q.Run(0)
	if done != 4 {
		t.Fatalf("completed %d", done)
	}
	if len(stub.fills) != 1 {
		t.Fatalf("fills = %d, want 1 coalesced column fill", len(stub.fills))
	}
	if c.stats.MSHRCoalesced != 3 {
		t.Fatalf("coalesced = %d", c.stats.MSHRCoalesced)
	}
}

func TestMSHRFullStallsAndRecovers(t *testing.T) {
	q := &sim.EventQueue{}
	stub := newStub(q)
	c, err := NewCache1P(q, CacheParams{
		Name: "L1", SizeBytes: 2 * KB, Assoc: 2,
		TagLat: 2, DataLat: 2, MSHRs: 2, Mapping: DifferentSet,
	}, true, stub)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for i := uint64(0); i < 5; i++ {
		c.CPUAccess(0, scalarLoad(i*isa.TileSize, isa.Row), func(uint64, uint64) { done++ })
	}
	q.Run(0)
	if done != 5 {
		t.Fatalf("completed %d of 5 under MSHR pressure", done)
	}
	if c.stats.MSHRStalls == 0 {
		t.Fatal("expected MSHR-full stalls")
	}
}

func TestSameSetMappingConflicts(t *testing.T) {
	// All 16 lines of a tile share a set under Same-Set mapping: with
	// 2-way associativity, touching many lines of one tile must evict.
	q, c, _ := test1P2L(t, SameSet)
	for i := uint64(0); i < 4; i++ {
		access(t, q, c, vectorLoad(isa.LineID{Base: i * isa.LineSize, Orient: isa.Row}))
	}
	rows, _ := c.Occupancy()
	if rows > 2 {
		t.Fatalf("same-set tile rows resident = %d, want ≤ assoc (2)", rows)
	}
	if c.stats.Evictions == 0 {
		t.Fatal("expected set-conflict evictions")
	}
}

func TestDifferentSetMappingSpreads(t *testing.T) {
	q, c, _ := test1P2L(t, DifferentSet)
	for i := uint64(0); i < 4; i++ {
		access(t, q, c, vectorLoad(isa.LineID{Base: i * isa.LineSize, Orient: isa.Row}))
	}
	rows, _ := c.Occupancy()
	if rows != 4 {
		t.Fatalf("different-set rows resident = %d, want 4", rows)
	}
}

func TestWritebackAbsorbEvictsMaskedDuplicates(t *testing.T) {
	q, c, _ := test1P2L(t, DifferentSet)
	// Resident column line crossing the incoming row writeback at word 3.
	access(t, q, c, vectorLoad(isa.LineID{Base: 3 * isa.WordSize, Orient: isa.Col}))
	var data [isa.WordsPerLine]uint64
	data[3] = 99
	c.Writeback(q.Now(), isa.LineID{Base: 0, Orient: isa.Row}, 0b1000, data)
	q.Run(0)
	_, cols := c.Occupancy()
	if cols != 0 {
		t.Fatal("dirty-masked writeback word must evict its column duplicate")
	}
	_, v := access(t, q, c, scalarLoad(3*isa.WordSize, isa.Row))
	if v != 99 {
		t.Fatalf("absorbed writeback lost data: %d", v)
	}
}

func TestWritebackAbsorbKeepsCleanDuplicates(t *testing.T) {
	q, c, _ := test1P2L(t, DifferentSet)
	access(t, q, c, vectorLoad(isa.LineID{Base: 3 * isa.WordSize, Orient: isa.Col}))
	var data [isa.WordsPerLine]uint64
	c.Writeback(q.Now(), isa.LineID{Base: 0, Orient: isa.Row}, 0b0001, data) // dirty at word 0 only
	q.Run(0)
	_, cols := c.Occupancy()
	if cols != 1 {
		t.Fatal("clean-overlap duplicate should survive (duplication allowed while clean)")
	}
}

func TestPeekOverlaysDirtyWords(t *testing.T) {
	q, c, stub := test1P2L(t, DifferentSet)
	stub.store.WriteWord(0, 1)
	stub.store.WriteWord(8, 2)
	access(t, q, c, vectorLoad(isa.LineID{Base: 0, Orient: isa.Row}))
	access(t, q, c, scalarStore(0, isa.Row, 100)) // dirty word 0
	got := c.Peek(isa.LineID{Base: 0, Orient: isa.Row})
	if got[0] != 100 || got[1] != 2 {
		t.Fatalf("Peek = %v", got[:2])
	}
	// Peek through the crossing column sees the dirty row word too.
	col := c.Peek(isa.LineID{Base: 0, Orient: isa.Col})
	if col[0] != 100 {
		t.Fatalf("column Peek missed dirty intersection: %d", col[0])
	}
}

func TestDrainWritesAllDirty(t *testing.T) {
	q, c, stub := test1P2L(t, DifferentSet)
	access(t, q, c, vectorStore(isa.LineID{Base: 0, Orient: isa.Row}, 10))
	access(t, q, c, vectorStore(isa.LineID{Base: 3 * isa.WordSize, Orient: isa.Col}, 20))
	c.Drain(q.Now())
	q.Run(0)
	if got := stub.store.ReadWord(8); got != 11 { // row word 1
		t.Fatalf("row store lost: %d", got)
	}
	if got := stub.store.ReadWord(isa.LineSize + 3*isa.WordSize); got != 21 { // col word 1
		t.Fatalf("column store lost: %d", got)
	}
	// Second drain is a no-op.
	n := len(stub.writebacks)
	c.Drain(q.Now())
	q.Run(0)
	if len(stub.writebacks) != n {
		t.Fatal("drain of clean cache wrote back")
	}
}

func Test1P1LRejectsColumns(t *testing.T) {
	q := &sim.EventQueue{}
	stub := newStub(q)
	c, err := NewCache1P(q, CacheParams{
		Name: "L1", SizeBytes: 2 * KB, Assoc: 2,
		TagLat: 2, DataLat: 2, MSHRs: 4,
	}, false, stub)
	if err != nil {
		t.Fatal(err)
	}
	c.CPUAccess(0, scalarLoad(0, isa.Col), func(uint64, uint64) {})
	if err := q.Err(); !errors.Is(err, sim.ErrInvalidAccess) {
		t.Fatalf("column op on 1P1L: err = %v, want sim.ErrInvalidAccess", err)
	}
}

func TestLRUReplacement(t *testing.T) {
	q, c, _ := test1P2L(t, DifferentSet)
	nsets := uint64(c.nsets)
	// Three lines mapping to set 0 in a 2-way cache: A, B, then touch A,
	// then insert C — B (LRU) must be evicted.
	a := isa.LineID{Base: 0, Orient: isa.Row}
	bLine := isa.LineID{Base: nsets * isa.LineSize, Orient: isa.Row}
	cLine := isa.LineID{Base: 2 * nsets * isa.LineSize, Orient: isa.Row}
	access(t, q, c, vectorLoad(a))
	access(t, q, c, vectorLoad(bLine))
	access(t, q, c, vectorLoad(a)) // touch A
	access(t, q, c, vectorLoad(cLine))
	if c.find(a) < 0 {
		t.Fatal("MRU line evicted")
	}
	if c.find(bLine) >= 0 {
		t.Fatal("LRU line survived")
	}
}

func TestPrefetcherCoversStream(t *testing.T) {
	q := &sim.EventQueue{}
	stub := newStub(q)
	c, err := NewCache1P(q, CacheParams{
		Name: "L1", SizeBytes: 4 * KB, Assoc: 4,
		TagLat: 2, DataLat: 2, MSHRs: 8, PrefetchDegree: 4,
	}, false, stub)
	if err != nil {
		t.Fatal(err)
	}
	misses := uint64(0)
	for i := uint64(0); i < 64; i++ {
		op := isa.Op{Addr: i * isa.LineSize, PC: 7}
		before := c.stats.Misses
		access(t, q, c, op)
		misses += c.stats.Misses - before
	}
	if c.stats.PrefetchIssued == 0 {
		t.Fatal("prefetcher never fired on a unit-stride stream")
	}
	if c.stats.PrefetchUseful == 0 {
		t.Fatal("no prefetches were useful")
	}
	if misses > 16 {
		t.Fatalf("stream took %d demand misses despite prefetching", misses)
	}
}

func TestPrefetcherStrideDetection(t *testing.T) {
	pf := newStridePrefetcher(2)
	// Train with stride 1024.
	var addrs []uint64
	for i := uint64(0); i < 6; i++ {
		addrs = pf.observe(isa.Op{Addr: i * 1024, PC: 3})
	}
	if len(addrs) == 0 {
		t.Fatal("confident stride produced no prefetches")
	}
	for i, a := range addrs {
		want := 5*1024 + uint64(i+1)*1024
		if a != want {
			t.Fatalf("prefetch %d = %#x, want %#x", i, a, want)
		}
	}
	// A stride change resets confidence.
	if got := pf.observe(isa.Op{Addr: 0, PC: 3}); got != nil {
		t.Fatal("prefetch after stride break")
	}
}

func TestSameSetSimultaneousLookup(t *testing.T) {
	// §IV-C: Same-Set mapping checks both orientations in one lookup, so a
	// wrong-orientation scalar hit costs no extra latency; Different-Set
	// pays one extra sequential tag access.
	latency := func(mapping SetMapping) uint64 {
		q, c, _ := test1P2L(t, mapping)
		access(t, q, c, vectorLoad(isa.LineOf(0x40, isa.Row)))
		t0 := q.Now()
		done, _ := access(t, q, c, scalarLoad(0x48, isa.Col)) // wrong-orient hit
		return done - t0
	}
	same, diff := latency(SameSet), latency(DifferentSet)
	if same >= diff {
		t.Fatalf("same-set wrong-orient hit (%d) should be faster than different-set (%d)", same, diff)
	}
}

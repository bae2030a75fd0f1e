package core

import (
	"io"
	"runtime"
	"testing"

	"mdacache/internal/isa"
	"mdacache/internal/obs"
	"mdacache/internal/sim"
)

// allocCache builds an instrumented-or-not 1P2L cache with one warm row line
// for hit-path allocation pins.
func allocCache(t *testing.T, tr *obs.Tracer) (*sim.EventQueue, *Cache1P) {
	t.Helper()
	q := &sim.EventQueue{}
	stub := newStub(q)
	c, err := NewCache1P(q, CacheParams{
		Name: "L1", SizeBytes: 2 * KB, Assoc: 2,
		TagLat: 2, DataLat: 2, MSHRs: 4, Mapping: DifferentSet,
	}, true, stub)
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		c.Instrument(obs.NewRegistry(), tr)
	}
	access(t, q, c, vectorStore(isa.LineOf(0x40, isa.Row), 100)) // warm line
	return q, c
}

// pinHitPath measures a steady-state scalar-load hit: pools warmed, done
// callback pre-bound, so the whole access→complete cycle must be alloc-free.
func pinHitPath(t *testing.T, q *sim.EventQueue, c *Cache1P) {
	t.Helper()
	op := scalarLoad(0x40, isa.Row)
	done := func(uint64, uint64) {}
	for i := 0; i < 4; i++ { // warm the event queue's slot pool and heap
		c.CPUAccess(q.Now(), op, done)
		q.Run(0)
	}
	if n := testing.AllocsPerRun(200, func() {
		c.CPUAccess(q.Now(), op, done)
		q.Run(0)
	}); n != 0 {
		t.Fatalf("L1 hit path allocates %v times per access, want 0", n)
	}
}

// TestL1HitPathAllocFree pins 0 allocs/op on the uninstrumented L1 scalar
// hit path — the hottest loop in every simulation.
func TestL1HitPathAllocFree(t *testing.T) {
	q, c := allocCache(t, nil)
	pinHitPath(t, q, c)
}

// TestL1HitPathAllocFreeWithDisabledTracer pins the same path with a tracer
// attached but filtered to another category: the Enabled() guard must keep
// disabled-tracer emit at a single branch, with zero allocations.
func TestL1HitPathAllocFreeWithDisabledTracer(t *testing.T) {
	tr := obs.NewTracer(io.Discard, obs.TraceConfig{Cats: obs.CatMem})
	defer tr.Close()
	q, c := allocCache(t, tr)
	pinHitPath(t, q, c)
}

// TestPrefetchObserveAllocFree is the regression pin for the stride
// prefetcher's per-trigger address list: once a PC is confident, observe must
// reuse its buffers and allocate nothing.
func TestPrefetchObserveAllocFree(t *testing.T) {
	p := newStridePrefetcher(2)
	op := isa.Op{PC: 7, Addr: 0}
	for i := 0; i < 8; i++ { // train a stable one-line stride
		op.Addr += isa.LineSize
		p.observe(op)
	}
	op.Addr += isa.LineSize
	if got := p.observe(op); len(got) == 0 {
		t.Fatal("prefetcher not confident after training")
	}
	if n := testing.AllocsPerRun(200, func() {
		op.Addr += isa.LineSize
		p.observe(op)
	}); n != 0 {
		t.Fatalf("confident observe allocates %v times per trigger, want 0", n)
	}
}

// loopTrace replays its ops forever: an endless trace for steady-state
// pins.
type loopTrace struct {
	ops []isa.Op
	i   int
}

func (t *loopTrace) Next() (isa.Op, bool) {
	op := t.ops[t.i]
	t.i = (t.i + 1) % len(t.ops)
	return op, true
}

// storeThenLoad returns ops that keep a scalar store in flight and hold the
// load of the same word behind it on the overlap-ordering rule, over a
// vector load and store of other lines of the tile.
func storeThenLoad(base uint64) []isa.Op {
	return []isa.Op{
		{Addr: base + 0x08, Kind: isa.Store, Value: 1},
		{Addr: base + 0x08, Kind: isa.Load},
		{Addr: base + 0x10, Orient: isa.Col, Vector: true},
		{Addr: base + 0x80, Kind: isa.Store, Vector: true},
		{Addr: base + 0x98, Kind: isa.Load},
	}
}

// pinIssueRetire starts one endless trace per core, warms the machine, then
// pins steady-state issue→retire — every run with a store in flight and an
// op held on the overlap rule — at 0 allocations.
func pinIssueRetire(t *testing.T, m *Machine, traces ...isa.TraceReader) {
	t.Helper()
	for i, c := range m.CPUs {
		c.Start(traces[i], func(uint64) {})
	}
	m.Q.RunBounded(0, 20000) // warm caches, slot pools and the event queue
	stalls := func() (n uint64) {
		for _, c := range m.CPUs {
			n += c.OrderStalls
		}
		return n
	}
	const runs = 200
	before := stalls()
	if n := testing.AllocsPerRun(runs, func() {
		m.Q.RunBounded(0, 64)
	}); n != 0 {
		t.Fatalf("CPU issue→retire allocates %v times per 64 events, want 0", n)
	}
	if err := m.Q.Err(); err != nil {
		t.Fatal(err)
	}
	if got := stalls() - before; got < runs {
		t.Fatalf("%d order stalls over %d runs: the pin must hold an op on the overlap rule every run", got, runs)
	}
}

// TestCPUIssueRetireAllocFree pins the single-core CPU front end: issue, the
// occupancy-index check, the order-stall hold and retire allocate nothing.
func TestCPUIssueRetireAllocFree(t *testing.T) {
	m, err := Build(DefaultConfig(D1DiffSet, 1*MB))
	if err != nil {
		t.Fatal(err)
	}
	pinIssueRetire(t, m, &loopTrace{ops: storeThenLoad(0x10000)})
}

// TestCPUIssueRetireAllocFreeTwoCores pins the same on a 2-core Build, whose
// cores share one occupancy index and contend for one tile.
func TestCPUIssueRetireAllocFreeTwoCores(t *testing.T) {
	cfg := DefaultConfig(D1DiffSet, 1*MB)
	cfg.Cores = 2
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pinIssueRetire(t, m,
		&loopTrace{ops: storeThenLoad(0x10000)},
		&loopTrace{ops: storeThenLoad(0x10000)})
}

// TestBuildFootprint pins the bytes core.Build allocates, which dominate a
// short run's setup time: the bounds are what Build allocated before the
// Cache1P tag/metadata/data split, so the split and the occupancy index
// together must not grow a machine.
func TestBuildFootprint(t *testing.T) {
	for _, tc := range []struct {
		design Design
		cores  int
		max    uint64
	}{
		{D0Baseline, 1, 2287480},
		{D2Sparse, 4, 1849024},
	} {
		cfg := DefaultConfig(tc.design, 1*MB)
		cfg.Cores = tc.cores
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Build(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > tc.max {
			t.Errorf("Build(%v, %d cores) allocates %d B, want ≤ %d B", tc.design, tc.cores, got, tc.max)
		}
	}
}

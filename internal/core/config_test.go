package core

import (
	"strings"
	"testing"

	"mdacache/internal/isa"
)

func TestDesignNamesAndLogicality(t *testing.T) {
	cases := []struct {
		d    Design
		name string
		l2d  bool
	}{
		{D0Baseline, "1P1L", false},
		{D1DiffSet, "1P2L", true},
		{D1SameSet, "1P2L_SameSet", true},
		{D2Sparse, "2P2L", true},
		{D2Dense, "2P2L_Dense", true},
		{D3AllTile, "2P2L_L1", true},
	}
	for _, c := range cases {
		if c.d.String() != c.name {
			t.Errorf("%v name = %q", c.d, c.d.String())
		}
		if c.d.Logical2D() != c.l2d {
			t.Errorf("%v Logical2D = %v", c.d, c.d.Logical2D())
		}
	}
	if !strings.Contains(Design(99).String(), "99") {
		t.Error("unknown design should stringify with its number")
	}
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig(D1DiffSet, 1*MB)
	if cfg.L1.SizeBytes != 32*KB || cfg.L1.Assoc != 4 || cfg.L1.Sequential {
		t.Fatalf("L1 config: %+v", cfg.L1)
	}
	if cfg.L2.SizeBytes != 256*KB || cfg.L2.Assoc != 8 || !cfg.L2.Sequential {
		t.Fatalf("L2 config: %+v", cfg.L2)
	}
	if cfg.L3.SizeBytes != 1*MB || cfg.L3.TagLat != 8 || cfg.L3.DataLat != 12 {
		t.Fatalf("L3 config: %+v", cfg.L3)
	}
	if cfg.Mem.Channels != 4 {
		t.Fatalf("memory channels = %d", cfg.Mem.Channels)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDesignKnobs(t *testing.T) {
	base := DefaultConfig(D0Baseline, 1*MB)
	if base.L1.PrefetchDegree == 0 {
		t.Fatal("baseline must enable the prefetcher (§VII)")
	}
	if !base.Mem.RowOnly {
		t.Fatal("baseline memory must be row-only")
	}
	same := DefaultConfig(D1SameSet, 1*MB)
	if same.L1.Mapping != SameSet || same.L2.Mapping != SameSet {
		t.Fatal("same-set design must set the mapping")
	}
	if same.L1.PrefetchDegree != 0 {
		t.Fatal("MDA designs run without prefetching (§VII)")
	}
	diff := DefaultConfig(D1DiffSet, 1*MB)
	if diff.L1.Mapping != DifferentSet {
		t.Fatal("diff-set mapping")
	}
}

func TestNonPowerOfTwoLLC(t *testing.T) {
	// The 1.5 MB LLC of Fig. 12 has a non-power-of-two set count.
	cfg := DefaultConfig(D1DiffSet, 3*MB/2)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Levels[2].(*Cache1P).nsets != 3*MB/2/(64*8) {
		t.Fatalf("sets = %d", m.Levels[2].(*Cache1P).nsets)
	}
}

func TestScalePreservesRatios(t *testing.T) {
	// L1 scales by 1/k (tracking the O(N) inner-loop footprint), L2/L3 by
	// 1/k² (tracking the O(N²) working sets).
	cfg := DefaultConfig(D1DiffSet, 1*MB).Scale(4)
	if cfg.L1.SizeBytes != 8*KB || cfg.L2.SizeBytes != 16*KB || cfg.L3.SizeBytes != 64*KB {
		t.Fatalf("scaled sizes: %d %d %d", cfg.L1.SizeBytes, cfg.L2.SizeBytes, cfg.L3.SizeBytes)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Extreme scaling must keep L2 strictly above L1.
	cfg = DefaultConfig(D1DiffSet, 1*MB).Scale(8)
	if cfg.L2.SizeBytes <= cfg.L1.SizeBytes {
		t.Fatalf("L2 (%d) not above L1 (%d)", cfg.L2.SizeBytes, cfg.L1.SizeBytes)
	}
}

func TestScaleClampsToGranularity(t *testing.T) {
	cfg := DefaultConfig(D3AllTile, 1*MB).Scale(8)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("tile-granular scale invalid: %v", err)
	}
	if cfg.L1.SizeBytes < cfg.L1.Assoc*isa.TileSize {
		t.Fatalf("L1 below one tile way per set: %d", cfg.L1.SizeBytes)
	}
}

// TestScaleHugeDivisor: k*k overflows to zero at k = 1<<32, so a scale that
// large once divided by zero. It must instead clamp every level to its
// minimum, like any scale beyond the capacities.
func TestScaleHugeDivisor(t *testing.T) {
	want := DefaultConfig(D1DiffSet, 1*MB).Scale(1 << 16).L3.SizeBytes
	for _, k := range []int{1 << 32, 1<<62 + 1} {
		cfg := DefaultConfig(D1DiffSet, 1*MB).Scale(k)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Scale(%d): %v", k, err)
		}
		if cfg.L3.SizeBytes != want {
			t.Fatalf("Scale(%d): LLC %d B, want the clamped %d B", k, cfg.L3.SizeBytes, want)
		}
	}
}

func TestTwoLevelConfig(t *testing.T) {
	cfg := TwoLevelConfig(D2Sparse, 2*MB)
	if cfg.L3.SizeBytes != 0 {
		t.Fatal("two-level config kept an L3")
	}
	if cfg.LLC() != &cfg.L2 {
		t.Fatal("LLC should be the L2")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Levels) != 2 {
		t.Fatalf("levels = %d", len(m.Levels))
	}
	if _, ok := m.Levels[1].(*Cache2P); !ok {
		t.Fatal("two-level 2P2L LLC should be a tile cache")
	}
	if _, ok := m.Levels[0].(*Cache1P); !ok {
		t.Fatal("L1 should remain physically 1-D")
	}
}

func TestBuildLevelKinds(t *testing.T) {
	cases := []struct {
		d       Design
		l1Tile  bool
		llcTile bool
	}{
		{D0Baseline, false, false},
		{D1DiffSet, false, false},
		{D2Sparse, false, true},
		{D2Dense, false, true},
		{D3AllTile, true, true},
	}
	for _, c := range cases {
		m, err := Build(DefaultConfig(c.d, 1*MB))
		if err != nil {
			t.Fatalf("%v: %v", c.d, err)
		}
		_, l1IsTile := m.Levels[0].(*Cache2P)
		_, llcIsTile := m.Levels[len(m.Levels)-1].(*Cache2P)
		if l1IsTile != c.l1Tile || llcIsTile != c.llcTile {
			t.Errorf("%v: l1Tile=%v llcTile=%v", c.d, l1IsTile, llcIsTile)
		}
	}
}

func TestConfigValidateErrors(t *testing.T) {
	bad := DefaultConfig(D1DiffSet, 1*MB)
	bad.Window = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero window accepted")
	}
	bad = DefaultConfig(D1DiffSet, 1*MB)
	bad.L1.MSHRs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero MSHRs accepted")
	}
	bad = DefaultConfig(D2Sparse, 1*MB)
	bad.L3.SizeBytes = 100 // not tile-divisible
	if err := bad.Validate(); err == nil {
		t.Error("non-tile-divisible 2P2L LLC accepted")
	}
}

func TestHitLatency(t *testing.T) {
	p := CacheParams{TagLat: 2, DataLat: 3}
	if p.HitLatency() != 3 {
		t.Fatalf("parallel latency = %d", p.HitLatency())
	}
	p.Sequential = true
	if p.HitLatency() != 5 {
		t.Fatalf("sequential latency = %d", p.HitLatency())
	}
}

func TestMachineRunHealthy(t *testing.T) {
	// A healthy machine must complete and return results with a nil error —
	// the deadlock/budget/timeout paths are covered in watchdog_test.go.
	m, err := Build(DefaultConfig(D1DiffSet, 1*MB).Scale(8))
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, m, isa.NewSliceTrace([]isa.Op{{Addr: 0}}))
	if res.Ops != 1 || res.Cycles == 0 {
		t.Fatalf("results: %+v", res)
	}
}

func TestOccupancySampling(t *testing.T) {
	cfg := DefaultConfig(D1DiffSet, 1*MB).Scale(8)
	cfg.OccupancySampleInterval = 100
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]isa.Op, 200)
	for i := range ops {
		ops[i] = isa.Op{Addr: uint64(i%32) * isa.TileSize, Orient: isa.Orient(i % 2), Gap: 20}
		if ops[i].Orient == isa.Col {
			ops[i].Addr = isa.LineOf(ops[i].Addr, isa.Col).Base
		}
	}
	res := mustRun(t, m, isa.NewSliceTrace(ops))
	if len(res.Occupancy) == 0 {
		t.Fatal("no occupancy samples recorded")
	}
	s := res.Occupancy[len(res.Occupancy)-1]
	if len(s.Row) != 3 || len(s.Col) != 3 {
		t.Fatalf("sample shape: %+v", s)
	}
	if s.Row[0]+s.Col[0] == 0 {
		t.Fatal("L1 empty at end of run")
	}
}

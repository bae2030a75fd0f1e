package mem

import (
	"fmt"
	"testing"

	"mdacache/internal/isa"
	"mdacache/internal/sim"
)

// TestBlockedMemoMatchesScan checks the controller's memoised "all banks
// busy" verdict against the scans it replaces. Seeded random Fill and
// Writeback arrivals hit few, slow banks so the blocked path is hot; at
// every issue the memo short-circuits, the test re-runs the queue choice,
// FR-FCFS pick and retry-min scan and requires the same failure and the
// same retry cycle. The write bursts cross DrainHigh and fall back through
// DrainLow, and the runs cover one and two buffers per bank, close page and
// write-fault injection.
func TestBlockedMemoMatchesScan(t *testing.T) {
	for _, tc := range []struct {
		buffers   int
		closePage bool
		faults    bool
	}{
		{1, false, false},
		{2, false, false},
		{1, true, false},
		{2, true, false},
		{1, false, true},
		{2, true, true},
	} {
		for seed := uint64(1); seed <= 4; seed++ {
			name := fmt.Sprintf("buffers%d/close%v/faults%v/seed%d", tc.buffers, tc.closePage, tc.faults, seed)
			t.Run(name, func(t *testing.T) {
				p := DefaultParams()
				p.Channels, p.Banks, p.TileColsPerBank = 2, 2, 16
				p.RCD, p.WriteRec = 90, 120
				p.WriteQueueCap, p.DrainHigh, p.DrainLow = 16, 8, 2
				p.BuffersPerBank, p.ClosePage = tc.buffers, tc.closePage
				if tc.faults {
					p.WriteFailProb, p.FaultSeed = 0.2, seed
					p.WriteRetryLimit = 64
				}
				skips, drains := runBlockedMemoOracle(t, p, seed)
				if skips < 100 {
					t.Fatalf("only %d memoised skips: the blocked path is not exercised", skips)
				}
				if drains < 2 {
					t.Fatalf("drain mode entered %d times: the write queue must cross DrainHigh, fall to DrainLow and cross again", drains)
				}
				t.Logf("%d memoised skips, %d drain entries", skips, drains)
			})
		}
	}
}

// runBlockedMemoOracle drives one seeded arrival stream through a memory
// built from p, checking every memoised skip. It returns the number of
// skips and of drain-mode entries seen.
func runBlockedMemoOracle(t *testing.T, p Params, seed uint64) (skips, drains int) {
	t.Helper()
	q := &sim.EventQueue{}
	m, err := New(q, p)
	if err != nil {
		t.Fatal(err)
	}
	wasDraining := make(map[*channelState]bool)
	m.onBlockedSkip = func(ch *channelState, now uint64) {
		skips++
		draining := ch.draining
		queue := m.selectQueue(ch)
		if ch.draining != draining {
			t.Fatalf("cycle %d: skip would have switched drain mode %v -> %v", now, draining, ch.draining)
		}
		if queue == nil {
			t.Fatalf("cycle %d: skip on an idle channel", now)
		}
		if idx := pickFRFCFS(*queue, now); idx >= 0 {
			t.Fatalf("cycle %d: skip while request %d of the chosen queue has a free bank", now, idx)
		}
		if got := minNextFree(*queue); got != ch.blockedUntil {
			t.Fatalf("cycle %d: memo says retry at %d, scan says %d", now, ch.blockedUntil, got)
		}
	}

	rng := sim.NewRNG(seed)
	const requests = 3000
	completed, reads := 0, 0
	at := uint64(0)
	var data [isa.WordsPerLine]uint64
	for i := 0; i < requests; i++ {
		// Bursts of back-to-back arrivals separated by idle gaps, so the
		// write queue fills past DrainHigh and then drains below DrainLow.
		if rng.Intn(16) == 0 {
			at += uint64(rng.Intn(2000))
		} else {
			at += uint64(rng.Intn(4))
		}
		line := isa.LineID{
			Base:   uint64(rng.Intn(64))*isa.TileSize + uint64(rng.Intn(isa.LinesPerTile))*isa.LineSize,
			Orient: isa.Orient(rng.Intn(2)),
		}
		if line.Orient == isa.Col {
			line.Base = isa.TileBase(line.Base) + uint64(rng.Intn(isa.WordsPerLine))*isa.WordSize
		}
		if rng.Intn(2) == 0 {
			reads++
			m.Fill(at, line, func(uint64, *[isa.WordsPerLine]uint64) { completed++ })
		} else {
			m.Writeback(at, line, uint8(1+rng.Intn(255)), data)
		}
	}
	// Sample drain mode after every event so the test knows it was entered.
	for q.Step() {
		for _, ch := range m.chans {
			if ch.draining && !wasDraining[ch] {
				drains++
			}
			wasDraining[ch] = ch.draining
		}
	}
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}
	if completed != reads {
		t.Fatalf("%d of %d reads completed", completed, reads)
	}
	if r, w := m.QueueDepths(); r != 0 || w != 0 {
		t.Fatalf("queues not empty at the end: %d reads, %d writes", r, w)
	}
	return skips, drains
}

package core

import (
	"mdacache/internal/isa"
	"mdacache/internal/obs"
	"mdacache/internal/sim"
)

// CPU is the trace-driven processor model. It approximates the paper's
// out-of-order x86 core (Table I) with the properties the memory system
// actually observes: memory operations issue in program order, separated by
// their compute gaps, with up to Window operations in flight at once
// (bounding memory-level parallelism the way a ROB + LSQ does), and the
// simulation's execution time is the cycle at which the last operation
// completes.
//
// Like a load-store queue, the CPU never lets two operations with
// overlapping words and at least one store be in flight simultaneously
// (§IV-B: "transactions that have overlapping words should be ordered, even
// if the access directions are different"). This both models the paper's
// ordering requirement and makes simulations functionally exact: every load
// observes the program-order-latest store.
type CPU struct {
	q      *sim.EventQueue
	l1     Level
	window int

	// coreID/name identify this core in a multi-core machine; group links
	// the cores so the §IV-B overlap-ordering rule spans the whole machine
	// (see coreGroup). Single-core machines leave group nil and name "cpu",
	// keeping their metric names and event order exactly as before.
	coreID int
	name   string
	group  *coreGroup

	trace isa.TraceReader
	// blocker is non-nil when the trace supports transient backpressure
	// (isa.Blocker): a failed Next with Blocked() true parks the pump until
	// the trace's readable callback reschedules it, instead of marking the
	// trace exhausted. Wakes go through the event queue, so parking and
	// resuming stay deterministic.
	blocker isa.Blocker
	// inflight is the out-of-order window; each slot records its own index
	// (cpuSlot.wi), so retiring an op is an O(1) swap-remove.
	inflight []*cpuSlot
	// occ is the machine's occupancy index of in-flight words: the CPU's own
	// on a single-core machine, the core group's shared one otherwise.
	occ       *occIndex
	heldOp    isa.Op   // next op, waiting for an overlap conflict to clear
	heldWords occWords // wordsOf(heldOp), kept for the retries
	heldSet   bool
	cursor    uint64 // next program-order issue cycle
	lastDone  uint64
	exhausted bool
	pumping   bool

	// freeSlots pools issue slots; each slot's issue/done callbacks are bound
	// once at creation, so steady-state issue→complete allocates nothing.
	freeSlots *cpuSlot

	// OnLoad, if set, observes every completed load (op, loaded value).
	// Used by the functional-verification tests.
	OnLoad func(op isa.Op, value uint64)

	// OnIssue, if set, observes (and may rewrite) every op at the moment it
	// actually issues — after any overlap-ordering hold has cleared, exactly
	// once per op. Because the ordering rule serializes conflicting ops
	// machine-wide, a shared reference model applied in issue order is an
	// exact value oracle even across cores; the multi-core conformance
	// harness uses this hook to annotate loads with their expected values.
	OnIssue func(op isa.Op) isa.Op

	// Counters.
	Ops         uint64
	ByKind      [2]uint64 // loads, stores
	ByOrient    [2]uint64
	Vectors     uint64
	OrderStalls uint64 // ops delayed by the overlap-ordering rule
	finished    func(endCycle uint64)
	tr          *obs.Tracer
}

// instrument registers the CPU's counters and attaches the tracer. Counter
// names are prefixed with the core's name ("cpu" single-core, "cpu<i>" in
// multi-core machines), giving each core its own counter family.
func (c *CPU) instrument(reg *obs.Registry, tr *obs.Tracer) {
	c.tr = tr
	p := c.name + "."
	reg.Counter(p+"ops", &c.Ops)
	reg.Counter(p+"loads", &c.ByKind[isa.Load])
	reg.Counter(p+"stores", &c.ByKind[isa.Store])
	reg.Counter(p+"ops.row", &c.ByOrient[isa.Row])
	reg.Counter(p+"ops.col", &c.ByOrient[isa.Col])
	reg.Counter(p+"vectors", &c.Vectors)
	reg.Counter(p+"order_stalls", &c.OrderStalls)
}

// cpuSlot carries one issued op from its issue event to its completion
// callback, and is the op's entry in the window and in the occupancy index.
// Slots are pooled (one live per in-flight op, so at most `window`) and their
// two closures are created once per slot, not once per op.
type cpuSlot struct {
	c       *CPU
	op      isa.Op
	issueAt uint64
	next    *cpuSlot // free-list link
	issueFn func()
	doneFn  func(doneAt, value uint64)

	wi           int      // index in c.inflight
	words        occWords // the op's tile and words in the occupancy index
	tprev, tnext *cpuSlot // the tile's other in-flight ops (occupancy index)
}

func (c *CPU) getSlot() *cpuSlot {
	if s := c.freeSlots; s != nil {
		c.freeSlots = s.next
		s.next = nil
		return s
	}
	s := &cpuSlot{c: c}
	s.issueFn = func() { s.c.l1.CPUAccess(s.issueAt, s.op, s.doneFn) }
	s.doneFn = func(doneAt, value uint64) {
		cc := s.c
		if doneAt > cc.lastDone {
			cc.lastDone = doneAt
		}
		if s.op.Kind == isa.Load && cc.OnLoad != nil {
			cc.OnLoad(s.op, value)
		}
		cc.retire(s)
		if cc.group != nil {
			// A retiring op may unblock a held op on ANY core; retry all of
			// them in ascending core-ID order — the deterministic cross-core
			// wake rule (DESIGN §11).
			cc.group.pumpAll()
		} else {
			cc.pump()
		}
	}
	return s
}

// NewCPU builds a core above l1 with the given in-flight window.
func NewCPU(q *sim.EventQueue, l1 Level, window int) *CPU {
	return &CPU{q: q, l1: l1, window: window, name: "cpu", occ: &occIndex{}}
}

// Start begins consuming the trace; finished fires (once) when every op has
// completed.
func (c *CPU) Start(trace isa.TraceReader, finished func(endCycle uint64)) {
	c.trace = trace
	c.finished = finished
	if b, ok := trace.(isa.Blocker); ok {
		c.blocker = b
		b.OnReadable(func() { c.q.Schedule(c.q.Now(), c.pump) })
	}
	c.q.Schedule(c.q.Now(), c.pump)
}

// InFlight reports the number of ops currently in the out-of-order window
// (stall diagnostics).
func (c *CPU) InFlight() int { return len(c.inflight) }

// Held reports whether an op is parked on the overlap-ordering rule (stall
// diagnostics).
func (c *CPU) Held() bool { return c.heldSet }

// HeldOp returns the parked op (valid only when Held; stall diagnostics).
func (c *CPU) HeldOp() isa.Op { return c.heldOp }

// conflicts reports whether op may not issue yet: it overlaps the words of
// an in-flight op with a store on either side — on this core, or on any
// core of the group in a multi-core machine (the §IV-B ordering requirement
// is a property of the memory system, not of one core's window).
//
// The occupancy index answers in one tile lookup. Its verdict is exact
// unless an irregular op (an unaligned scalar or a non-canonical vector,
// which only a corrupt or fuzzed trace carries) is involved; then the
// windows are scanned instead (DESIGN §11).
func (c *CPU) conflicts(op isa.Op, w occWords) bool {
	if w.mask != 0 && c.occ.irregular == 0 {
		return c.occ.conflicts(w)
	}
	if c.group == nil {
		return c.windowConflicts(op)
	}
	for _, p := range c.group.cpus {
		if p.windowConflicts(op) {
			return true
		}
	}
	return false
}

// windowConflicts checks op against this core's own in-flight window by
// exact line and address comparison — the fallback for irregular ops, and
// the oracle the occupancy index is tested against.
func (c *CPU) windowConflicts(op isa.Op) bool {
	isStore := op.Kind == isa.Store
	id := isa.LineFor(op)
	for _, e := range c.inflight {
		eStore := e.op.Kind == isa.Store
		if !eStore && !isStore {
			continue
		}
		eLine := isa.LineFor(e.op)
		if !eLine.Overlaps(id) {
			continue
		}
		switch {
		case e.op.Vector && op.Vector:
			return true // overlapping lines always share a word
		case e.op.Vector && !op.Vector:
			if eLine.Contains(op.Addr) {
				return true
			}
		case !e.op.Vector && op.Vector:
			if id.Contains(e.op.Addr) {
				return true
			}
		default:
			if e.op.Addr == op.Addr {
				return true
			}
		}
	}
	return false
}

// pump issues ops while window slots are free and ordering allows.
func (c *CPU) pump() {
	if c.pumping {
		return
	}
	c.pumping = true
	defer func() { c.pumping = false }()
	for len(c.inflight) < c.window && !c.exhausted {
		var op isa.Op
		var w occWords
		if c.heldSet {
			op, w = c.heldOp, c.heldWords
		} else {
			next, ok := c.trace.Next()
			if !ok {
				if c.blocker != nil && c.blocker.Blocked() {
					break // transient backpressure: OnReadable reschedules the pump
				}
				c.exhausted = true
				break
			}
			op = next
			w = wordsOf(op)
		}
		if c.conflicts(op, w) {
			if !c.heldSet {
				c.OrderStalls++
				if c.tr.Enabled(obs.CatCPU) {
					c.tr.Instant(c.q.Now(), obs.CatCPU, c.name, "order_stall",
						obs.Fields{Addr: op.Addr, Orient: int8(op.Orient)})
				}
				c.heldOp, c.heldWords = op, w
				c.heldSet = true
			}
			break // retried when an in-flight op completes
		}
		c.heldSet = false
		c.issue(op)
	}
	c.maybeFinish()
}

func (c *CPU) issue(op isa.Op) {
	if c.OnIssue != nil {
		op = c.OnIssue(op)
	}
	c.Ops++
	c.ByKind[op.Kind]++
	c.ByOrient[op.Orient]++
	if op.Vector {
		c.Vectors++
	}
	now := c.q.Now()
	// Program-order pacing: at least one cycle between issues plus the
	// op's compute gap; never earlier than now.
	c.cursor += 1 + uint64(op.Gap)
	if c.cursor < now {
		c.cursor = now
	}

	s := c.enter(op)
	s.issueAt = c.cursor
	c.q.Schedule(s.issueAt, s.issueFn)
}

// enter puts op into the window and the occupancy index.
func (c *CPU) enter(op isa.Op) *cpuSlot {
	s := c.getSlot()
	s.op = op
	s.wi = len(c.inflight)
	c.inflight = append(c.inflight, s)
	c.occ.add(s)
	return s
}

// retire takes a completed op out of the window (swap-remove: conflicts()
// is an order-independent predicate, so in-flight order need not be kept)
// and the occupancy index, and returns its slot to the pool.
func (c *CPU) retire(s *cpuSlot) {
	last := len(c.inflight) - 1
	moved := c.inflight[last]
	c.inflight[s.wi] = moved
	moved.wi = s.wi
	c.inflight[last] = nil
	c.inflight = c.inflight[:last]
	c.occ.remove(s)
	s.next = c.freeSlots
	c.freeSlots = s
}

func (c *CPU) maybeFinish() {
	if c.exhausted && len(c.inflight) == 0 && !c.heldSet && c.finished != nil {
		fin := c.finished
		c.finished = nil
		end := c.lastDone
		if c.cursor > end {
			end = c.cursor
		}
		fin(end)
	}
}

// occWords is the set of words one op touches, as a tile and a 64-bit mask
// of the tile's words (bit rowInTile*8+colInTile).
type occWords struct {
	tile  uint64 // tile base
	mask  uint64 // 0 for an irregular op, which is kept out of the tiles
	store bool
}

// Word masks of tile line 0 in each orientation; line i is the mask shifted
// by 8i (row) or i (column).
const (
	occRow0 = uint64(0xff)
	occCol0 = uint64(0x0101010101010101)
)

// wordsOf returns the words op touches. The mask is 0 for an irregular
// op, whose overlaps the masks cannot decide exactly: an unaligned scalar
// (the window scan compares scalar addresses exactly, not by word) or a
// vector on a non-canonical line.
func wordsOf(op isa.Op) occWords {
	w := occWords{tile: isa.TileBase(op.Addr), store: op.Kind == isa.Store}
	switch {
	case !op.Vector:
		if op.Addr%isa.WordSize == 0 {
			w.mask = 1 << isa.WordIndex(op.Addr)
		}
	case op.Orient == isa.Row:
		if op.Addr%isa.LineSize == 0 {
			w.mask = occRow0 << (8 * isa.RowInTile(op.Addr))
		}
	default:
		if op.Addr%isa.WordSize == 0 && isa.RowInTile(op.Addr) == 0 {
			w.mask = occCol0 << isa.ColInTile(op.Addr)
		}
	}
	return w
}

// occIndex is the occupancy index behind the §IV-B overlap check: for every
// tile with an op in flight anywhere in the machine, the words touched by
// in-flight stores and by any in-flight op. An op conflicts iff its words
// meet the store words, or it is a store and they meet the touched words —
// one table lookup instead of a scan of every core's window.
//
// The table is open-addressed (linear probing, backward-shift deletion) and
// grows on demand; it never holds more tiles than there are ops in flight.
// Each tile keeps an intrusive list of its in-flight ops. A retire unlinks
// its op in O(1) and leaves the tile's masks stale: still a superset of the
// truth, so a miss is exact, and a hit on a stale tile recomputes the masks
// from the list before it is believed.
type occIndex struct {
	tab  []occTile // len is 0 or a power of two
	live int       // occupied entries
	// irregular counts in-flight ops whose words are not in the table;
	// while any is in flight, conflicts fall back to the window scan.
	irregular int
}

type occTile struct {
	key    uint64 // tile base | 1; 0 marks an empty entry
	stores uint64 // words touched by in-flight stores
	any    uint64 // words touched by any in-flight op
	stale  bool   // an op retired since the masks were computed
	ops    *cpuSlot
}

// home is key's preferred table entry (Fibonacci hashing of the tile number).
func (x *occIndex) home(key uint64) int {
	return int(((key >> 9) * 0x9E3779B97F4A7C15) >> 32 & uint64(len(x.tab)-1))
}

// lookup returns the entry index holding key, or -1.
func (x *occIndex) lookup(key uint64) int {
	if len(x.tab) == 0 {
		return -1
	}
	m := len(x.tab) - 1
	for i := x.home(key); ; i = (i + 1) & m {
		switch x.tab[i].key {
		case key:
			return i
		case 0:
			return -1
		}
	}
}

// hit reports whether the tile's masks hold an op touching w back.
func (t *occTile) hit(w occWords) bool {
	return w.mask&t.stores != 0 || w.store && w.mask&t.any != 0
}

// conflicts reports whether an op touching w may not issue; see occIndex.
func (x *occIndex) conflicts(w occWords) bool {
	i := x.lookup(w.tile | 1)
	if i < 0 {
		return false
	}
	t := &x.tab[i]
	if !t.hit(w) {
		return false
	}
	if t.stale {
		t.stores, t.any = 0, 0
		for p := t.ops; p != nil; p = p.tnext {
			t.any |= p.words.mask
			if p.words.store {
				t.stores |= p.words.mask
			}
		}
		t.stale = false
		return t.hit(w)
	}
	return true
}

// add records the issued op s.
func (x *occIndex) add(s *cpuSlot) {
	w := wordsOf(s.op)
	s.words = w
	if w.mask == 0 {
		x.irregular++
		return
	}
	key := w.tile | 1
	i := x.lookup(key)
	if i < 0 {
		if 2*(x.live+1) > len(x.tab) {
			x.grow()
		}
		i = x.empty(key)
		x.tab[i].key = key
		x.live++
	}
	t := &x.tab[i]
	s.tprev, s.tnext = nil, t.ops
	if t.ops != nil {
		t.ops.tprev = s
	}
	t.ops = s
	t.any |= w.mask
	if w.store {
		t.stores |= w.mask
	}
}

// remove forgets the retiring op s.
func (x *occIndex) remove(s *cpuSlot) {
	if s.words.mask == 0 {
		x.irregular--
		return
	}
	i := x.lookup(s.words.tile | 1)
	t := &x.tab[i]
	if s.tprev != nil {
		s.tprev.tnext = s.tnext
	} else {
		t.ops = s.tnext
	}
	if s.tnext != nil {
		s.tnext.tprev = s.tprev
	}
	s.tprev, s.tnext = nil, nil
	if t.ops != nil {
		t.stale = true
		return
	}
	x.live--
	// Backward-shift deletion: pull later entries of the probe run into the
	// hole when the hole lies on their probe path.
	m := len(x.tab) - 1
	for j := i; ; {
		x.tab[i] = occTile{}
		for {
			j = (j + 1) & m
			if x.tab[j].key == 0 {
				return
			}
			if (j-x.home(x.tab[j].key))&m >= (j-i)&m {
				break
			}
		}
		x.tab[i] = x.tab[j]
		i = j
	}
}

// empty returns the first empty entry on key's probe path.
func (x *occIndex) empty(key uint64) int {
	m := len(x.tab) - 1
	i := x.home(key)
	for x.tab[i].key != 0 {
		i = (i + 1) & m
	}
	return i
}

// grow doubles the table (16 entries at first) and rehashes it.
func (x *occIndex) grow() {
	old := x.tab
	n := 2 * len(old)
	if n == 0 {
		n = 16
	}
	x.tab = make([]occTile, n)
	for _, t := range old {
		if t.key != 0 {
			x.tab[x.empty(t.key)] = t
		}
	}
}

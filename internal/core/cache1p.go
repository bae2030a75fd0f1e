package core

import (
	"math/bits"

	"mdacache/internal/isa"
	"mdacache/internal/obs"
	"mdacache/internal/sim"
)

// A physically-1-D cache line — 64 bytes stored densely, holding either a
// row or a column of a tile — is one way of the cache's three set-major
// arrays, all indexed by way number set*assoc+way (the FlexiCAS
// tag/meta/data split):
//
//   - keys[w] is the line's identity, lineKey(id)|lineValid, or 0 when the
//     way is invalid. It is the only array a lookup reads. The Dir(ection)
//     status bit of Fig. 7 is the key's orientation bit.
//   - meta[w] is the way's replacement and coherence state; its per-word
//     dirty bits are those of §IV-C, Design 1 ("1 extra dirty bit ... for
//     each word in the cache line").
//   - data[w] is the line's 8 words.
type lineMeta struct {
	lastUse    uint64
	dirty      uint8
	prefetched bool
	rrpv       uint8 // SRRIP re-reference counter
}

// lineValid marks a valid way's key. lineKey leaves bits 1-2 clear: every
// line a cache holds is canonical, so its base is word-aligned.
const lineValid = 2

// keyID decodes a valid way's key back to the line identity.
func keyID(k uint64) isa.LineID {
	return isa.LineID{Base: k &^ (isa.WordSize - 1), Orient: isa.Orient(k & 1)}
}

// Cache1P is a physically 1-D, set-associative, write-back/write-allocate
// cache. With logical2D=false it is the baseline 1P1L design (Design 0);
// with logical2D=true it is the paper's 1P2L MDACache (Design 1): lines of
// both orientations coexist, indexed by either the Different-Set or the
// Same-Set mapping, with the write-back-based duplicate-coherence policy of
// Fig. 9 and the extra tag-probe latencies of §VI-A.
type Cache1P struct {
	q         *sim.EventQueue
	p         CacheParams
	logical2D bool
	below     Backend

	nsets   int
	setMask uint64 // nsets-1 when nsets is a power of two, else 0 (modulo path)
	sameSet bool   // logical2D && Mapping == SameSet, hoisted off the index path
	hitLat  uint64 // HitLatency(), computed once
	assoc   int
	keys    []uint64                   // per way: lineKey|lineValid, 0 if invalid
	meta    []lineMeta                 // per way
	data    [][isa.WordsPerLine]uint64 // per way
	mshr    *mshrFile
	port    sim.Resource
	// setArb, when non-nil (EnableSetArbitration), replaces the single
	// global port with one arbiter per set: accesses to different sets
	// proceed in parallel; same-set accesses contend FIFO (DESIGN §11).
	setArb []sim.Resource
	pf     *stridePrefetcher
	opred  *orientPredictor
	rng    *sim.RNG // random-replacement source

	// onWrite, when non-nil, observes every store applied to this cache
	// (line identity + mask of written words) — the snoop hub's remote-write
	// invalidation hook in multi-core machines.
	onWrite func(at uint64, id isa.LineID, mask uint8)

	// orientCount tracks valid resident lines per orientation so the
	// intersecting-line walks exit immediately while the other orientation
	// has no residents at all (the common phase-local case).
	orientCount [2]int

	// res indexes resident lines by tile for the crossing-line walks of a
	// logically-2-D cache. It is built by the first walk that gets past the
	// orientCount exit and maintained from then on (tileRes).
	res tileRes

	useCounter uint64
	stats      LevelStats

	tr      *obs.Tracer    // nil = tracing off (one nil check per event site)
	fillLat *obs.Histogram // issue→arrival latency of fills (registry-only)
}

// Instrument publishes the level's counters in the registry (aliasing the
// LevelStats storage) and attaches the tracer. Called by Build; caches
// constructed directly (unit tests) run uninstrumented.
func (c *Cache1P) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	c.tr = tr
	registerLevelStats(reg, &c.stats)
	c.fillLat = reg.Histogram(lowerName(c.p.Name) + ".fill_latency")
}

// traceEv emits a cache-category instant event. Callers guard with
// `if c.tr != nil` so the off path costs a single branch.
func (c *Cache1P) traceEv(at uint64, event string, id isa.LineID, v uint64) {
	if c.tr.Enabled(obs.CatCache) {
		c.tr.Instant(at, obs.CatCache, c.p.Name, event,
			obs.Fields{Addr: id.Base, Orient: int8(id.Orient), V: v})
	}
}

// traceMSHR emits an MSHR-category instant event carrying the in-flight depth.
func (c *Cache1P) traceMSHR(at uint64, event string, id isa.LineID) {
	if c.tr.Enabled(obs.CatMSHR) {
		c.tr.Instant(at, obs.CatMSHR, c.p.Name, event,
			obs.Fields{Addr: id.Base, Orient: int8(id.Orient), V: uint64(c.mshr.inFlight())})
	}
}

// NewCache1P builds a physically-1-D cache above the given backend.
func NewCache1P(q *sim.EventQueue, p CacheParams, logical2D bool, below Backend) (*Cache1P, error) {
	if err := p.Validate(isa.LineSize); err != nil {
		return nil, err
	}
	nsets := p.SizeBytes / (isa.LineSize * p.Assoc)
	c := &Cache1P{
		q: q, p: p, logical2D: logical2D, below: below,
		nsets:   nsets,
		sameSet: logical2D && p.Mapping == SameSet,
		hitLat:  p.HitLatency(),
		assoc:   p.Assoc,
		keys:    make([]uint64, nsets*p.Assoc),
		meta:    make([]lineMeta, nsets*p.Assoc),
		data:    make([][isa.WordsPerLine]uint64, nsets*p.Assoc),
		stats:   LevelStats{Name: p.Name},
	}
	if nsets&(nsets-1) == 0 {
		c.setMask = uint64(nsets - 1)
	}
	c.mshr = newMSHRFile(p.MSHRs, func(e *mshrEntry) {
		e.onFill = func(at uint64, data *[isa.WordsPerLine]uint64) { c.fillArrived(at, e, data) }
	})
	if p.PrefetchDegree > 0 {
		c.pf = newStridePrefetcher(p.PrefetchDegree)
	}
	if p.PredictOrient && logical2D {
		c.opred = newOrientPredictor()
	}
	if p.Repl == ReplRandom {
		c.rng = sim.NewRNG(0x5EED)
	}
	return c, nil
}

// Stats implements Level.
func (c *Cache1P) Stats() *LevelStats { return &c.stats }

// EnableSetArbitration switches the cache from one global port to one
// arbiter per set — the FlexiCAS-style per-set meta state used at the
// shared levels of multi-core machines, so orientation duplicates and tile
// fills from different cores contend per set instead of serializing
// globally. Call before simulation starts.
func (c *Cache1P) EnableSetArbitration() {
	c.setArb = make([]sim.Resource, c.nsets)
}

// acquirePort reserves occ cycles on the arbiter covering id (the per-set
// arbiter when enabled, else the global port), counting set conflicts.
func (c *Cache1P) acquirePort(at uint64, id isa.LineID, occ uint64) (start uint64) {
	if c.setArb == nil {
		return c.port.Acquire(at, occ)
	}
	start = c.setArb[c.setIndex(id)].Acquire(at, occ)
	if start > at {
		c.stats.SetConflicts++
		c.stats.SetArbDelay += start - at
	}
	return start
}

// setIndex maps a line to its set.
//
// Different-Set (Fig. 8 cache decode): a row line indexes with its ordinary
// line number (tile number × 8 + row-in-tile); a column line symmetrically
// with tile number × 8 + column-in-tile. Rows and columns of one tile spread
// over up to 16 distinct sets while sharing the tile-number tag.
//
// Same-Set: both orientations index with the tile number alone, so all 16
// lines of a tile compete within one set.
func (c *Cache1P) setIndex(id isa.LineID) int {
	num := id.Tile() >> 9
	if !c.sameSet {
		num = num*isa.LinesPerTile + uint64(id.Index())
	}
	if c.setMask != 0 {
		return int(num & c.setMask)
	}
	// Scaled configurations can produce a non-power-of-two set count.
	return int(num % uint64(c.nsets))
}

// find returns the way holding the resident line with the given identity,
// or -1.
func (c *Cache1P) find(id isa.LineID) int {
	k := lineKey(id) | lineValid
	b := c.setIndex(id) * c.assoc
	for w, key := range c.keys[b : b+c.assoc] {
		if key == k {
			return b + w
		}
	}
	return -1
}

// id returns the identity of the line in valid way w.
func (c *Cache1P) id(w int) isa.LineID { return keyID(c.keys[w]) }

func (c *Cache1P) touch(w int) {
	c.useCounter++
	c.meta[w].lastUse = c.useCounter
}

// noteDemandHit updates recency, SRRIP promotion and prefetch-usefulness
// accounting on a demand hit of way w.
func (c *Cache1P) noteDemandHit(w int) {
	c.touch(w)
	m := &c.meta[w]
	m.rrpv = 0 // SRRIP promotion on proven reuse
	if m.prefetched {
		m.prefetched = false
		c.stats.PrefetchUseful++
	}
	if c.tr != nil {
		c.traceEv(c.q.Now(), "hit", c.id(w), 0)
	}
}

// intersectingDo invokes fn for the way of every valid line of the opposite
// orientation in id's tile (the up-to-8 lines that cross id), in ascending
// line index. Only lines the residency index reports resident are probed;
// the probe still guards against a callback having dropped a later line.
func (c *Cache1P) intersectingDo(id isa.LineID, fn func(m int)) {
	if !c.logical2D {
		return
	}
	other := id.Orient.Other()
	if c.orientCount[other] == 0 {
		return // no resident lines of the other orientation anywhere
	}
	if c.res.tab == nil {
		c.buildRes()
	}
	tile := id.Tile()
	step := uint64(isa.WordSize) // column i starts at word i of the tile
	if other == isa.Row {
		step = isa.LineSize
	}
	for lines := c.res.mask(tile) >> (8 * other) & 0xff; lines != 0; lines &= lines - 1 {
		mid := isa.LineID{Base: tile + uint64(bits.TrailingZeros16(lines))*step, Orient: other}
		if m := c.find(mid); m >= 0 {
			fn(m)
		}
	}
}

// buildRes fills the residency index from the resident lines.
func (c *Cache1P) buildRes() {
	c.res.grow()
	for _, k := range c.keys {
		if k != 0 {
			c.res.add(keyID(k))
		}
	}
}

// tileRes is the residency index of a logically-2-D Cache1P: for every tile
// with a resident line, a 16-bit mask of which of its lines are resident,
// bits 0-7 the row lines and bits 8-15 the column lines, by line index. A
// crossing-line walk reads one entry instead of probing 8 sets, most of
// which miss.
//
// The table has occIndex's layout: open-addressed, Fibonacci home, linear
// probing, backward-shift deletion, doubling from 64 entries to stay at
// most half full. An entry exists exactly while its mask is non-zero, so
// the table never holds more tiles than the cache holds lines.
type tileRes struct {
	tab  []resTile // nil until built, then a power of two
	live int       // occupied entries
}

type resTile struct {
	key  uint64 // tile base | 1; 0 marks an empty entry
	mask uint16
}

// resBit is id's bit in its tile's mask.
func resBit(id isa.LineID) uint16 { return 1 << (id.Index() + 8*uint(id.Orient)) }

// home is key's preferred table entry (Fibonacci hashing of the tile number).
func (x *tileRes) home(key uint64) int {
	return int(((key >> 9) * 0x9E3779B97F4A7C15) >> 32 & uint64(len(x.tab)-1))
}

// lookup returns the entry index holding key, or -1.
func (x *tileRes) lookup(key uint64) int {
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

// mask returns the resident-line mask of the tile at base tile.
func (x *tileRes) mask(tile uint64) uint16 {
	if i := x.lookup(tile | 1); i >= 0 {
		return x.tab[i].mask
	}
	return 0
}

// add records that line id became resident.
func (x *tileRes) add(id isa.LineID) {
	key := id.Tile() | 1
	i := x.lookup(key)
	if i < 0 {
		if 2*(x.live+1) > len(x.tab) {
			x.grow()
		}
		i = x.empty(key)
		x.tab[i].key = key
		x.live++
	}
	x.tab[i].mask |= resBit(id)
}

// remove records that line id is no longer resident.
func (x *tileRes) remove(id isa.LineID) {
	i := x.lookup(id.Tile() | 1)
	if x.tab[i].mask &^= resBit(id); x.tab[i].mask != 0 {
		return
	}
	x.live--
	// Backward-shift deletion: pull later entries of the probe run into the
	// hole when the hole lies on their probe path.
	m := len(x.tab) - 1
	for j := i; ; {
		x.tab[i] = resTile{}
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
func (x *tileRes) empty(key uint64) int {
	m := len(x.tab) - 1
	i := x.home(key)
	for x.tab[i].key != 0 {
		i = (i + 1) & m
	}
	return i
}

// grow doubles the table (64 entries at first) and rehashes it.
func (x *tileRes) grow() {
	old := x.tab
	n := 2 * len(old)
	if n == 0 {
		n = 64
	}
	x.tab = make([]resTile, n)
	for _, t := range old {
		if t.key != 0 {
			x.tab[x.empty(t.key)] = t
		}
	}
}

// writebackLine sends way w's dirty words below (full data, dirty mask).
// Traffic is accounted at dirty-word granularity — the per-word dirty bits
// of §IV-C exist precisely to shrink false-sharing writeback bandwidth.
func (c *Cache1P) writebackLine(at uint64, w int) {
	dirty := c.meta[w].dirty
	c.stats.Writebacks++
	c.stats.BytesToBelow += uint64(bits.OnesCount8(dirty)) * isa.WordSize
	if c.tr != nil {
		c.traceEv(at, "writeback", c.id(w), uint64(dirty))
	}
	c.below.Writeback(at, c.id(w), dirty, c.data[w])
}

// flushLine writes back a modified line and marks it clean (the
// Modified→Clean "read to duplicate" transition of Fig. 9).
func (c *Cache1P) flushLine(at uint64, w int) {
	if c.meta[w].dirty != 0 {
		c.writebackLine(at, w)
		c.meta[w].dirty = 0
	}
}

// invalidate drops valid way w, which must already be clean.
func (c *Cache1P) invalidate(w int) {
	c.orientCount[c.keys[w]&1]--
	if c.res.tab != nil {
		c.res.remove(c.id(w))
	}
	c.keys[w] = 0
}

// evictDuplicate removes a duplicate copy (the Fig. 9 "write to duplicate"
// transitions: Clean→Invalid directly; Modified→writeback→Invalid).
func (c *Cache1P) evictDuplicate(at uint64, m int) {
	if c.p.BreakDupCoherence {
		return // testing-only coherence mutation, see CacheParams
	}
	id := c.id(m)
	c.flushLine(at, m)
	c.invalidate(m)
	c.stats.DuplicateEvictions++
	if c.tr != nil {
		c.traceEv(at, "dup_evict", id, 0)
	}
}

// victim picks the replacement way of one set, given the set's keys and
// metadata: an invalid way if one exists, otherwise the configured policy's
// choice. It returns the way's index within the set.
func (c *Cache1P) victim(keys []uint64, meta []lineMeta) int {
	for i, k := range keys {
		if k == 0 {
			return i
		}
	}
	switch c.p.Repl {
	case ReplRandom:
		return c.rng.Intn(len(keys))
	case ReplSRRIP:
		for {
			for i := range meta {
				if meta[i].rrpv >= srripMax {
					return i
				}
			}
			for i := range meta {
				meta[i].rrpv++
			}
		}
	default: // LRU
		v := 0
		for i := range meta {
			if meta[i].lastUse < meta[v].lastUse {
				v = i
			}
		}
		return v
	}
}

// install places line data into the cache, evicting (and writing back) a
// victim if necessary. If the line is already resident — possible when a
// writeback from above landed while a fill was in flight, or vice versa —
// the merge rule is: words in overrideMask (a newer writeback) always take
// the incoming data; other resident dirty words take precedence over the
// (older) incoming data. The merged data is written back into *data so
// callers deliver fresh words upward.
func (c *Cache1P) install(at uint64, id isa.LineID, data *[isa.WordsPerLine]uint64, dirtyMask, overrideMask uint8, prefetched bool) {
	if l := c.find(id); l >= 0 {
		m := &c.meta[l]
		for i := uint(0); i < isa.WordsPerLine; i++ {
			if m.dirty&(1<<i) != 0 && overrideMask&(1<<i) == 0 {
				data[i] = c.data[l][i]
			}
		}
		c.data[l] = *data
		m.dirty |= dirtyMask
		c.touch(l)
		return
	}
	b := c.setIndex(id) * c.assoc
	v := b + c.victim(c.keys[b:b+c.assoc], c.meta[b:b+c.assoc])
	if c.keys[v] != 0 {
		c.stats.Evictions++
		c.orientCount[c.keys[v]&1]--
		if c.res.tab != nil {
			c.res.remove(c.id(v))
		}
		if c.meta[v].dirty != 0 {
			c.writebackLine(at, v)
		}
	}
	c.keys[v] = lineKey(id) | lineValid
	if c.res.tab != nil {
		c.res.add(id)
	}
	c.meta[v] = lineMeta{dirty: dirtyMask, prefetched: prefetched}
	c.data[v] = *data
	c.orientCount[id.Orient]++
	c.touch(v)
	c.meta[v].rrpv = srripInsertRRPV
}

// requestFill starts (or joins) a miss for id. t describes the consumer to
// wake with the installed line's data (tNone for prefetches).
func (c *Cache1P) requestFill(at uint64, id isa.LineID, prefetch bool, t fillTarget) {
	if e := c.mshr.lookup(id); e != nil {
		c.stats.MSHRCoalesced++
		if c.tr != nil {
			c.traceMSHR(at, "mshr_coalesce", id)
		}
		if e.prefetch && !prefetch {
			// A demand miss caught an in-flight prefetch: partial coverage.
			c.stats.PrefetchUseful++
			e.prefetch = false
		}
		if t.kind != tNone {
			e.targets = append(e.targets, t)
		}
		return
	}
	if c.mshr.full() {
		if prefetch {
			return // drop prefetches under MSHR pressure
		}
		c.stats.MSHRStalls++
		if c.tr != nil {
			c.traceMSHR(at, "mshr_stall", id)
		}
		c.mshr.stall(id, t)
		return
	}
	e := c.mshr.allocate(id, prefetch)
	e.born = at
	if c.tr != nil {
		c.traceMSHR(at, "mshr_alloc", id)
	}
	if t.kind != tNone {
		e.targets = append(e.targets, t)
	}
	// 2-D MSHR ordering (§IV-B): modified intersecting lines are written
	// back *before* the fill is issued, so the level below observes the
	// write→read order for the overlapping words.
	c.intersectingDo(id, func(m int) {
		mid := c.id(m)
		if addr, ok := mid.Intersection(id); ok {
			if off, ok := mid.WordOffset(addr); ok && c.meta[m].dirty&(1<<off) != 0 {
				c.flushLine(at, m)
				c.stats.DuplicateFlushes++
				if c.tr != nil {
					c.traceEv(at, "dup_flush", mid, 0)
				}
			}
		}
	})
	c.stats.FillsIssued++
	c.below.Fill(at, id, e.onFill)
}

// fillArrived completes a miss: flush any words modified locally since the
// fill was issued (keeping the Fig. 9 invariant that a modified word has a
// single copy), latch the freshest committed data below, install, and wake
// the waiting targets.
func (c *Cache1P) fillArrived(at uint64, e *mshrEntry, _ *[isa.WordsPerLine]uint64) {
	id := e.line
	c.stats.BytesFromBelow += isa.LineSize
	c.fillLat.Observe(at - e.born)
	if c.tr.Enabled(obs.CatCache) {
		c.tr.Span(e.born, at-e.born, obs.CatCache, c.p.Name, "fill",
			obs.Fields{Addr: id.Base, Orient: int8(id.Orient)})
	}
	c.intersectingDo(id, func(m int) {
		mid := c.id(m)
		addr, _ := mid.Intersection(id)
		moff, _ := mid.WordOffset(addr)
		if c.meta[m].dirty&(1<<moff) != 0 {
			c.flushLine(at, m)
			c.stats.DuplicateFlushes++
			if c.tr != nil {
				c.traceEv(at, "dup_flush", mid, 0)
			}
		}
	})
	// The timing payload may predate writes that passed the in-flight fill;
	// latch the current committed state below instead (see Backend.Peek).
	data := c.below.Peek(id)
	c.install(at, id, &data, 0, 0, e.prefetch)
	deliverAt := at + c.p.DataLat
	w, stalled := c.mshr.complete(e)
	if c.tr != nil {
		c.traceMSHR(at, "mshr_retire", id)
	}
	for i := range e.targets {
		c.dispatchTarget(at, deliverAt, id, &e.targets[i], &data)
	}
	if stalled {
		c.requestFill(at, w.line, false, w.target)
	}
	c.mshr.release(e)
}

// dispatchTarget wakes one fill consumer, mirroring exactly what the
// pre-encoding closures did: word and line deliveries snapshot the merged
// data now and fire at deliverAt; store targets apply (or refetch) now with
// deliverAt timing.
func (c *Cache1P) dispatchTarget(at, deliverAt uint64, id isa.LineID, t *fillTarget, data *[isa.WordsPerLine]uint64) {
	switch t.kind {
	case tWord:
		c.q.ScheduleArg(deliverAt, t.done1, data[t.off])
	case tLine:
		c.q.ScheduleData(deliverAt, t.done8, data)
	case tStore:
		l := c.find(id)
		if l < 0 {
			// The just-installed line was evicted within the same cycle by
			// a conflicting waiter; re-install via a fresh fill.
			c.requestFill(deliverAt, id, false, fillTarget{
				kind: tStoreFinal, addr: t.addr, value: t.value, done1: t.done1,
			})
			return
		}
		c.applyStoreWord(deliverAt, l, t.addr, t.value)
		c.q.ScheduleArg(deliverAt, t.done1, 0)
	case tStoreFinal:
		if l := c.find(id); l >= 0 {
			c.applyStoreWord(deliverAt, l, t.addr, t.value)
		}
		c.q.ScheduleArg(deliverAt, t.done1, 0)
	}
}

// chargePort reserves the tag/data port for `probes` sequential tag accesses
// starting at `at`, returning the access start cycle and the extra latency
// beyond the first probe (§VI-A charges each additional probe one TagLat).
// id selects the arbiter under per-set arbitration (shared levels of
// multi-core machines); otherwise the single global port is charged.
func (c *Cache1P) chargePort(at uint64, id isa.LineID, probes int) (start, extraLat uint64) {
	if probes > 1 {
		c.stats.ExtraTagProbes += uint64(probes - 1)
		if c.tr.Enabled(obs.CatCache) {
			c.tr.Instant(at, obs.CatCache, c.p.Name, "dup_probe",
				obs.Fields{Orient: obs.OrientNone, V: uint64(probes - 1)})
		}
	}
	start = c.acquirePort(at, id, uint64(probes))
	return start, uint64(probes-1) * c.p.TagLat
}

// chargePortOffPath reserves the port for probes that overlap miss handling
// (the vector-miss and write duplicate checks): they cost port occupancy —
// delaying later accesses — but §VI-A notes they are off the latency
// critical path, so the miss itself is not delayed by them.
//
// Occupancy model: under the Different-Set mapping the 8 intersecting-line
// probes address 8 distinct sets, i.e. different tag banks, and proceed in
// parallel (2 port cycles: the demand probe plus one banked-probe burst).
// Under the Same-Set mapping all candidates live in one set, so a single
// (wide) set read covers them (1 extra cycle). Statistics still count every
// logical probe.
func (c *Cache1P) chargePortOffPath(at uint64, id isa.LineID, probes int) (start uint64) {
	occ := uint64(probes)
	if probes > 1 {
		c.stats.ExtraTagProbes += uint64(probes - 1)
		if c.tr.Enabled(obs.CatCache) {
			c.tr.Instant(at, obs.CatCache, c.p.Name, "dup_probe",
				obs.Fields{Orient: obs.OrientNone, V: uint64(probes - 1)})
		}
		occ = 2
		if c.p.Mapping == SameSet {
			occ = 1 // all candidates live in one set: one wide read
		}
	}
	return c.acquirePort(at, id, occ)
}

// checkOrient validates that column traffic only reaches logically-2-D
// caches. A violation — a workload compiled for the wrong hierarchy, or a
// corrupt trace — records a typed sim.ErrInvalidAccess on the event queue
// (halting the run) and returns false; callers drop the request.
func (c *Cache1P) checkOrient(o isa.Orient) bool {
	if !c.logical2D && o == isa.Col {
		c.q.Failf(c.p.Name, "access", sim.ErrInvalidAccess,
			"column access reached logically 1-D cache (compile the workload for a 1-D hierarchy)")
		return false
	}
	return true
}

// checkCanonical validates a vector line identity. Non-canonical lines come
// from mis-compiled or corrupt traces; they fail the run with a typed error
// rather than panicking.
func checkCanonical(q *sim.EventQueue, name string, id isa.LineID) bool {
	if !id.IsCanonical() {
		q.Failf(name, "access", sim.ErrInvalidAccess,
			"non-canonical line %v (mis-compiled or corrupt trace)", id)
		return false
	}
	return true
}

// MSHRInFlight implements Level.
func (c *Cache1P) MSHRInFlight() int { return c.mshr.inFlight() }

// CPUAccess implements Level: one processor memory operation.
func (c *Cache1P) CPUAccess(at uint64, op isa.Op, done func(at uint64, value uint64)) {
	if !c.checkOrient(op.Orient) {
		return
	}
	c.stats.Accesses++
	c.stats.ByOrient[op.Orient]++
	if op.Vector {
		c.stats.VectorAccesses++
	} else {
		c.stats.ScalarAccesses++
	}
	if c.pf != nil {
		c.prefetchObserve(at, op)
	}
	if op.Vector {
		if !checkCanonical(c.q, c.p.Name, isa.LineID{Base: op.Addr, Orient: op.Orient}) {
			return
		}
		if op.Kind == isa.Load {
			c.vectorLoad(at, op, done)
		} else {
			c.vectorStore(at, op, done)
		}
		return
	}
	if c.opred != nil {
		// Dynamic preference: once the per-PC stride predictor is
		// confident, it overrides the instruction's static bit.
		c.opred.observe(op.PC, op.Addr)
		op.Orient = c.opred.predict(op.PC, op.Orient)
	}
	if op.Kind == isa.Load {
		c.scalarLoad(at, op, done)
	} else {
		c.scalarStore(at, op, done)
	}
}

func (c *Cache1P) scalarLoad(at uint64, op isa.Op, done func(uint64, uint64)) {
	pref := isa.LineOf(op.Addr, op.Orient)
	if l := c.find(pref); l >= 0 {
		start, _ := c.chargePort(at, pref, 1)
		c.stats.Hits++
		c.noteDemandHit(l)
		off, _ := pref.WordOffset(op.Addr)
		c.q.ScheduleArg(start+c.hitLat, done, c.data[l][off])
		return
	}
	if c.logical2D {
		// Check the other orientation; scalar hits ignore alignment
		// (§IV-B(b)). Under Different-Set mapping this is a second,
		// sequential tag access (§IV-C: "incurring additional cycles of
		// latency"); under Same-Set mapping both orientations share the
		// set and are checked by the one simultaneous lookup, for free.
		other := isa.LineOf(op.Addr, op.Orient.Other())
		if m := c.find(other); m >= 0 {
			probes, extraLat := 2, uint64(0)
			if c.p.Mapping == SameSet {
				probes = 1
			}
			start, extra := c.chargePort(at, other, probes)
			if c.p.Mapping != SameSet {
				extraLat = extra
			}
			c.stats.Hits++
			c.stats.HitsWrongOrient++
			c.noteDemandHit(m)
			off, _ := other.WordOffset(op.Addr)
			c.q.ScheduleArg(start+c.hitLat+extraLat, done, c.data[m][off])
			return
		}
	}
	probes := 1
	if c.logical2D && c.p.Mapping != SameSet {
		probes = 2
	}
	start, extra := c.chargePort(at, pref, probes)
	c.stats.Misses++
	if c.tr != nil {
		c.traceEv(at, "miss", pref, 0)
	}
	off, _ := pref.WordOffset(op.Addr)
	c.requestFill(start+c.p.TagLat+extra, pref, false, fillTarget{kind: tWord, off: uint8(off), done1: done})
}

// applyStoreWord performs the word write into the line in way l, first
// evicting any duplicate copy in the other orientation ("write to
// duplicate").
func (c *Cache1P) applyStoreWord(at uint64, l int, addr, value uint64) {
	id := c.id(l)
	if c.logical2D {
		dup := isa.LineOf(addr, id.Orient.Other())
		if m := c.find(dup); m >= 0 {
			c.evictDuplicate(at, m)
		}
	}
	off, ok := id.WordOffset(addr)
	if !ok {
		panic("core: store applied to non-containing line")
	}
	c.data[l][off] = value
	c.meta[l].dirty |= 1 << off
	c.touch(l)
	if c.onWrite != nil {
		c.onWrite(at, id, 1<<off)
	}
}

func (c *Cache1P) scalarStore(at uint64, op isa.Op, done func(uint64, uint64)) {
	pref := isa.LineOf(op.Addr, op.Orient)
	target := c.find(pref)
	wrongOrient := false
	if target < 0 && c.logical2D {
		target = c.find(isa.LineOf(op.Addr, op.Orient.Other()))
		wrongOrient = target >= 0
	}
	probes := 1
	if c.logical2D && c.p.Mapping != SameSet {
		probes = 2 // write checks both orientations (§IV-C Design 1)
	}
	start, extra := c.chargePort(at, pref, probes)
	if target >= 0 {
		c.stats.Hits++
		if wrongOrient {
			c.stats.HitsWrongOrient++
		}
		c.noteDemandHit(target)
		c.applyStoreWord(start, target, op.Addr, op.Value)
		c.q.ScheduleArg(start+c.hitLat+extra, done, 0)
		return
	}
	c.stats.Misses++
	if c.tr != nil {
		c.traceEv(at, "miss", pref, 0)
	}
	c.requestFill(start+c.p.TagLat+extra, pref, false,
		fillTarget{kind: tStore, addr: op.Addr, value: op.Value, done1: done})
}

func (c *Cache1P) vectorLoad(at uint64, op isa.Op, done func(uint64, uint64)) {
	id := isa.LineID{Base: op.Addr, Orient: op.Orient}
	if l := c.find(id); l >= 0 {
		start, _ := c.chargePort(at, id, 1)
		c.stats.Hits++
		c.noteDemandHit(l)
		c.q.ScheduleArg(start+c.hitLat, done, c.data[l][0])
		return
	}
	probes := 1
	if c.logical2D {
		probes = 1 + isa.WordsPerLine // §VI-A: 8 extra probes on vector miss
	}
	start := c.chargePortOffPath(at, id, probes)
	c.stats.Misses++
	if c.tr != nil {
		c.traceEv(at, "miss", id, 0)
	}
	c.requestFill(start+c.p.TagLat, id, false, fillTarget{kind: tWord, off: 0, done1: done})
}

// vectorPayload synthesises the 8 stored words of a vector store from the
// op's scalar Value (word i stores Value+i). The functional-verification
// oracle applies the same rule.
func vectorPayload(v uint64) (data [isa.WordsPerLine]uint64) {
	for i := range data {
		data[i] = v + uint64(i)
	}
	return data
}

func (c *Cache1P) vectorStore(at uint64, op isa.Op, done func(uint64, uint64)) {
	id := isa.LineID{Base: op.Addr, Orient: op.Orient}
	probes := 1
	if c.logical2D {
		probes = 1 + isa.WordsPerLine
	}
	start := c.chargePortOffPath(at, id, probes) // write checks are off the critical path (§VI-A)
	// A full-line store supersedes every intersecting copy.
	c.intersectingDo(id, func(m int) { c.evictDuplicate(start, m) })
	data := vectorPayload(op.Value)
	if l := c.find(id); l >= 0 {
		c.stats.Hits++
		c.noteDemandHit(l)
		c.data[l] = data
		c.meta[l].dirty = 0xff
	} else {
		// Write-allocate without fetch: the store covers the whole line.
		c.stats.Misses++
		if c.tr != nil {
			c.traceEv(at, "miss", id, 0)
		}
		c.install(start, id, &data, 0xff, 0xff, false)
	}
	if c.onWrite != nil {
		c.onWrite(start, id, 0xff)
	}
	c.q.ScheduleArg(start+c.hitLat, done, 0)
}

// Fill implements Backend for the level above: serve a full line.
func (c *Cache1P) Fill(at uint64, id isa.LineID, done func(uint64, *[isa.WordsPerLine]uint64)) {
	if !c.checkOrient(id.Orient) || !checkCanonical(c.q, c.p.Name, id) {
		return
	}
	c.stats.Accesses++
	c.stats.VectorAccesses++
	c.stats.ByOrient[id.Orient]++
	if l := c.find(id); l >= 0 {
		start, _ := c.chargePort(at, id, 1)
		c.stats.Hits++
		c.noteDemandHit(l)
		// ScheduleData snapshots the line at schedule time, matching the
		// by-value capture this path used before the encoding change.
		c.q.ScheduleData(start+c.hitLat, done, &c.data[l])
		return
	}
	probes := 1
	if c.logical2D {
		probes = 1 + isa.WordsPerLine
	}
	start := c.chargePortOffPath(at, id, probes)
	c.stats.Misses++
	if c.tr != nil {
		c.traceEv(at, "miss", id, 0)
	}
	c.requestFill(start+c.p.TagLat, id, false, fillTarget{kind: tLine, done8: done})
}

// Writeback implements Backend for the level above: absorb a dirty line.
// It is treated as a write for the Fig. 9 duplicate policy: masked (dirty)
// words evict their other-orientation copies.
func (c *Cache1P) Writeback(at uint64, id isa.LineID, mask uint8, data [isa.WordsPerLine]uint64) {
	if !c.checkOrient(id.Orient) || !checkCanonical(c.q, c.p.Name, id) {
		return
	}
	c.stats.WritebacksIn++
	probes := 1
	if c.logical2D {
		probes = 1 + isa.WordsPerLine
	}
	start, _ := c.chargePort(at, id, probes)
	c.intersectingDo(id, func(m int) {
		addr, _ := c.id(m).Intersection(id)
		ioff, _ := id.WordOffset(addr)
		if mask&(1<<ioff) != 0 {
			c.evictDuplicate(start, m)
		}
	})
	c.install(start, id, &data, mask, mask, false)
}

// prefetchObserve trains the stride prefetcher and issues row-line
// prefetches (Design 0 baseline).
func (c *Cache1P) prefetchObserve(at uint64, op isa.Op) {
	for _, addr := range c.pf.observe(op) {
		id := isa.LineOf(addr, isa.Row)
		if c.find(id) >= 0 || c.mshr.lookup(id) != nil {
			continue
		}
		c.stats.PrefetchIssued++
		if c.tr != nil {
			c.traceEv(at, "prefetch", id, 0)
		}
		c.requestFill(at, id, true, fillTarget{})
	}
}

// Peek implements Backend's synchronous functional-data path: the freshest
// value of each word of the line, overlaying this level's dirty words on
// everything below.
func (c *Cache1P) Peek(id isa.LineID) [isa.WordsPerLine]uint64 {
	data := c.below.Peek(id)
	c.peekDirty(id, &data)
	return data
}

// peekDirty implements snooper: overlay this cache's dirty words of id onto
// data, both from the same-identity line and from intersecting lines of the
// other orientation.
func (c *Cache1P) peekDirty(id isa.LineID, data *[isa.WordsPerLine]uint64) {
	if l := c.find(id); l >= 0 {
		for i := uint(0); i < isa.WordsPerLine; i++ {
			if c.meta[l].dirty&(1<<i) != 0 {
				data[i] = c.data[l][i]
			}
		}
	}
	c.intersectingDo(id, func(m int) {
		mid := c.id(m)
		addr, _ := mid.Intersection(id)
		moff, _ := mid.WordOffset(addr)
		if c.meta[m].dirty&(1<<moff) != 0 {
			ioff, _ := id.WordOffset(addr)
			data[ioff] = c.data[m][moff]
		}
	})
}

// invalidateLine flushes a line's dirty words below and drops it (the snoop
// S/M→Invalid transition).
func (c *Cache1P) invalidateLine(at uint64, l int) {
	c.flushLine(at, l)
	c.invalidate(l)
}

// snoopFlush implements snooper: a remote core is reading id, so write back
// every dirty word of it held here — the same-identity line plus any
// intersecting line of the other orientation — leaving copies resident but
// clean (M→S downgrade).
func (c *Cache1P) snoopFlush(at uint64, id isa.LineID) int {
	n := 0
	if l := c.find(id); l >= 0 && c.meta[l].dirty != 0 {
		c.flushLine(at, l)
		n++
	}
	c.intersectingDo(id, func(m int) {
		mid := c.id(m)
		if addr, ok := mid.Intersection(id); ok {
			if off, ok := mid.WordOffset(addr); ok && c.meta[m].dirty&(1<<off) != 0 {
				c.flushLine(at, m)
				n++
			}
		}
	})
	return n
}

// snoopInvalidate implements snooper: a remote core wrote the masked words
// of id, so flush and drop every local copy containing one of them. The
// same-identity copy always contains a written word; in a logically-2-D L1
// each written word may additionally live in an other-orientation line.
// Invalidation is line-granular (false sharing).
func (c *Cache1P) snoopInvalidate(at uint64, id isa.LineID, mask uint8) int {
	n := 0
	if l := c.find(id); l >= 0 {
		c.invalidateLine(at, l)
		n++
	}
	if c.logical2D && c.orientCount[id.Orient.Other()] > 0 {
		for i := uint(0); i < isa.WordsPerLine; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			other := isa.LineOf(id.WordAddr(i), id.Orient.Other())
			if m := c.find(other); m >= 0 {
				c.invalidateLine(at, m)
				n++
			}
		}
	}
	return n
}

// Occupancy implements Level.
func (c *Cache1P) Occupancy() (rowLines, colLines int) {
	for _, k := range c.keys {
		if k == 0 {
			continue
		}
		if isa.Orient(k&1) == isa.Row {
			rowLines++
		} else {
			colLines++
		}
	}
	return rowLines, colLines
}

// Drain implements Level: flush all dirty lines below.
func (c *Cache1P) Drain(at uint64) {
	for w, k := range c.keys {
		if k != 0 && c.meta[w].dirty != 0 {
			c.flushLine(at, w)
		}
	}
}

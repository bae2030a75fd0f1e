package core

import "mdacache/internal/isa"

// fillTarget is one consumer of an in-flight fill, encoded as a small value
// instead of a per-miss closure (the fill path is hot enough that closure
// allocation and [8]uint64 captures dominated the profile). The owning cache
// interprets the kind in its fillArrived dispatch; the done1/done8 callbacks
// are the upper layer's completion functions, which are long-lived (pooled
// CPU slots, pooled MSHR entries), so registering a target allocates nothing
// in steady state.
type fillTarget struct {
	kind  uint8
	off   uint8  // word offset for tWord delivery
	addr  uint64 // scalar word address (store targets)
	value uint64 // store value
	done1 func(at, v uint64)
	done8 func(at uint64, data *[isa.WordsPerLine]uint64)
}

// Target kinds. tNone marks "no target" (prefetches, dense background
// fills); the cache-specific kinds mirror the closures they replaced.
const (
	tNone       = uint8(iota)
	tWord       // deliver data[off] to done1 at deliverAt
	tLine       // deliver the full line to done8 at deliverAt
	tStore      // Cache1P scalar-store completion (find/apply or refetch)
	tStoreFinal // Cache1P refetched store: apply if found, complete regardless
	tStore2P    // Cache2P scalar-store completion (find tile/apply or refetch)
)

// mshrFile models a cache's miss-status holding registers. Misses to a line
// already in flight coalesce onto the existing entry (the paper notes that
// "many misses to the same column are combined into one column access in the
// MSHR"). When the file is full, the requesting access is queued and retried
// as entries free up, modelling MSHR-full stalls.
//
// The 2-D awareness required by §IV-B (ordering of transactions with
// overlapping words across orientations) is implemented by the owning cache:
// every fill is preceded, in the same cycle, by writebacks of any
// intersecting modified lines, and fill completions patch in-cache modified
// words, so overlapping write→read order is preserved end to end.
//
// Layout: in-flight entries live in two parallel slices, packed 8-byte keys
// scanned linearly and the entry pointers. Removal swap-deletes; lookups are
// exact-key and overlap checks boolean, so entry order never matters. The
// scan is not free: on the Fig. 12 sweep (4 kernels × 4 designs, N=64, 1 MB
// LLC) lookup runs 3.7M times per pass and scans 31 keys on average. It
// stays because a prototype open-addressed index over the keys measured no
// faster end to end: 31 packed keys span four cache lines, while a hashed
// index adds upkeep to every allocate and complete. Entries
// are pooled and pre-bound to their cache's fill-arrival callback via the
// bind hook, so allocation is amortised to the simulation's high-water
// mark.
type mshrFile struct {
	cap  int
	keys []uint64 // packed line keys, parallel to ents
	ents []*mshrEntry
	free *mshrEntry         // entry pool (intrusive list via poolNext)
	bind func(e *mshrEntry) // owner pre-binds e.onFill on first allocation

	// Stalled accesses wait in a head-index ring (FIFO). A plain
	// `waiters = waiters[1:]` pop would pin every popped element's backing
	// array forever; the ring reuses one buffer and zeroes popped slots.
	waiters []waiter
	wHead   int
	wLen    int
}

// waiter is one access stalled on a full file: enough to re-issue the
// requestFill that stalled.
type waiter struct {
	line   isa.LineID
	target fillTarget
}

type mshrEntry struct {
	line     isa.LineID
	prefetch bool
	born     uint64 // allocation cycle, for fill-latency accounting
	targets  []fillTarget
	// onFill is the below.Fill completion callback, bound once per pooled
	// entry by the owning cache (it closes over the entry itself, so fill
	// arrival needs no per-miss closure).
	onFill   func(at uint64, data *[isa.WordsPerLine]uint64)
	poolNext *mshrEntry
}

// lineKey packs a LineID into 8 bytes: Base is word-aligned (low 3 bits
// zero), so the orientation bit fits below it uniquely.
func lineKey(line isa.LineID) uint64 { return line.Base | uint64(line.Orient) }

// newMSHRFile builds a file; bind is invoked once for every newly created
// pooled entry so the owning cache can pre-bind its fill-arrival callback.
func newMSHRFile(capacity int, bind func(e *mshrEntry)) *mshrFile {
	return &mshrFile{
		cap:  capacity,
		keys: make([]uint64, 0, capacity),
		ents: make([]*mshrEntry, 0, capacity),
		bind: bind,
	}
}

// lookup returns the in-flight entry for line, if any.
func (f *mshrFile) lookup(line isa.LineID) *mshrEntry {
	k := lineKey(line)
	for i, key := range f.keys {
		if key == k {
			return f.ents[i]
		}
	}
	return nil
}

// anyInFlightOverlapping reports whether any in-flight fill overlaps line.
func (f *mshrFile) anyInFlightOverlapping(line isa.LineID) bool {
	for _, e := range f.ents {
		if e.line.Overlaps(line) {
			return true
		}
	}
	return false
}

// full reports whether a new entry can be allocated.
func (f *mshrFile) full() bool { return len(f.ents) >= f.cap }

// allocate creates an entry; the caller must have checked full().
func (f *mshrFile) allocate(line isa.LineID, prefetch bool) *mshrEntry {
	e := f.free
	if e != nil {
		f.free = e.poolNext
		e.poolNext = nil
	} else {
		e = &mshrEntry{}
		if f.bind != nil {
			f.bind(e)
		}
	}
	e.line = line
	e.prefetch = prefetch
	e.born = 0
	f.keys = append(f.keys, lineKey(line))
	f.ents = append(f.ents, e)
	return e
}

// stall queues the access to be re-issued when an entry frees.
func (f *mshrFile) stall(line isa.LineID, target fillTarget) {
	if f.wLen == len(f.waiters) {
		f.growWaiters()
	}
	f.waiters[(f.wHead+f.wLen)&(len(f.waiters)-1)] = waiter{line: line, target: target}
	f.wLen++
}

func (f *mshrFile) growWaiters() {
	newCap := len(f.waiters) * 2
	if newCap == 0 {
		newCap = 8
	}
	buf := make([]waiter, newCap)
	for i := 0; i < f.wLen; i++ {
		buf[i] = f.waiters[(f.wHead+i)&(len(f.waiters)-1)]
	}
	f.waiters = buf
	f.wHead = 0
}

// waiterCap reports the ring's allocated capacity (regression tests pin that
// sustained stall/complete cycling keeps it bounded).
func (f *mshrFile) waiterCap() int { return len(f.waiters) }

// complete removes the entry from the file and dequeues the oldest stalled
// access, if any. The entry itself stays owned by the caller — dispatch its
// targets, then hand it back with release.
func (f *mshrFile) complete(e *mshrEntry) (w waiter, ok bool) {
	k := lineKey(e.line)
	for i, key := range f.keys {
		if key == k {
			last := len(f.keys) - 1
			f.keys[i] = f.keys[last]
			f.keys = f.keys[:last]
			f.ents[i] = f.ents[last]
			f.ents[last] = nil
			f.ents = f.ents[:last]
			break
		}
	}
	if f.wLen > 0 {
		w = f.waiters[f.wHead]
		f.waiters[f.wHead] = waiter{} // release callback refs
		f.wHead = (f.wHead + 1) & (len(f.waiters) - 1)
		f.wLen--
		ok = true
	}
	return w, ok
}

// release returns a completed entry to the pool, dropping its target
// callbacks so the pool never pins dead closures.
func (f *mshrFile) release(e *mshrEntry) {
	for i := range e.targets {
		e.targets[i] = fillTarget{}
	}
	e.targets = e.targets[:0]
	e.poolNext = f.free
	f.free = e
}

// inFlight returns the number of allocated entries.
func (f *mshrFile) inFlight() int { return len(f.ents) }

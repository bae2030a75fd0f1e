package main

import (
	"time"

	"mdacache/internal/stats"
)

// The host this benchmark runs on is shared, and how fast it runs a pass
// drifts in steps that last minutes. On a 2-CPU Xeon host the same fig12
// pass took 1.9 s for a few minutes, then 1.65 s, then 1.33 s, with every
// pass within a step alike. A median over a run cannot remove a step that
// covers the whole run, so two sets of runs of the same code differed by
// more than any useful bound.
//
// refLoop is a fixed piece of CPU-bound Go work, independent of the
// program: a chain of integer hashes, dependent loads within a 256 KiB
// table, and map updates. The driver times it before every pass, in its own
// process while no pass runs. Its time moves with those steps, so the gated
// time metrics are scaled by refNominalS / (median refLoop time of the run):
// they read as seconds on a host where refLoop takes refNominalS. Wall times
// are scaled by refLoop's wall time and CPU times by its CPU time, since
// time the host gives to other tenants stretches the one and not the other.
// Set-up is scaled by the CPU time too: it lasts well under a scheduler
// slice, so other tenants rarely stretch it. With a busy loop sharing the
// benchmark's one CPU, refLoop's wall time doubled and set-up's did not.
// A change to the program cannot change refLoop, so it moves the scaled
// metrics one for one. Unscaled values are printed and recorded beside them.
//
// refLoop follows steps in core speed. It does not follow the memory
// system's share of a step, which weighs more on the simulator's larger
// working set, so part of a step that slows memory more than the core
// remains.

// refNominalS is the refLoop time the scaled metrics are expressed at,
// about its median on the 2-CPU Xeon host the benchmark was written on.
const refNominalS = 0.05

const (
	refHashes   = 4_000_000
	refTableLen = 1 << 15 // 256 KiB of uint64: within a core's L2
	refLoads    = 2_000_000
	refMapKeys  = 1 << 14
	refMapOps   = 2_000_000
)

var (
	refTable []uint64
	refMap   map[uint64]uint64
	// refSink keeps the loop's result alive so the compiler cannot drop it.
	refSink uint64
)

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// refSample is one refLoop's wall and process CPU seconds.
type refSample struct{ Wall, CPU float64 }

// refMedian is the median wall and the median CPU time of the samples.
func refMedian(rs []refSample) refSample {
	var wall, cpu []float64
	for _, r := range rs {
		wall, cpu = append(wall, r.Wall), append(cpu, r.CPU)
	}
	return refSample{stats.Median(wall), stats.Median(cpu)}
}

// refLoop runs the reference work once and times it. Its table and map are
// made on the first call, outside the timing, so later calls allocate
// nothing.
func refLoop() refSample {
	if refTable == nil {
		refTable = make([]uint64, refTableLen)
		x := uint64(7)
		for i := range refTable {
			x = splitmix(x)
			refTable[i] = x
		}
		refMap = make(map[uint64]uint64, refMapKeys)
	}
	clear(refMap)
	cpu0 := cpuTime()
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < refHashes; i++ {
		x = splitmix(x)
	}
	j := x % refTableLen
	for i := 0; i < refLoads; i++ {
		j = (refTable[j] ^ uint64(i)) % refTableLen
	}
	acc := x + j
	for i := 0; i < refMapOps; i++ {
		x = splitmix(x)
		k := x % refMapKeys
		refMap[k] += x
		acc += refMap[(k*7)%refMapKeys]
	}
	refSink += acc
	return refSample{time.Since(t0).Seconds(), (cpuTime() - cpu0).Seconds()}
}

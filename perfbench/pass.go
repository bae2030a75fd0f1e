package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mdacache/internal/core"
	"mdacache/internal/obs"
)

// output is one simulated run's result as the output check sees it.
type output struct {
	Key    string `json:"key"` // RunSpec.String()
	Cycles uint64 `json:"cycles"`
	Digest string `json:"digest"` // of the Results.Metrics snapshot
}

// opResult is one operation: a simulated run (fig12, kv) or a job (serve).
type opResult struct {
	LatMS   float64  `json:"lat_ms,omitempty"` // a job's submit-to-terminal time
	Err     string   `json:"err,omitempty"`
	Outputs []output `json:"outputs,omitempty"`
}

// passResult is what one pass reports to the driver.
type passResult struct {
	Workload   string     `json:"workload"`
	Traced     bool       `json:"traced"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	SetupS     float64    `json:"setup_s"`
	WallS      float64    `json:"wall_s"`
	CPUS       float64    `json:"cpu_s"`
	PeakRSSMB  float64    `json:"peak_rss_mb"`
	SimS       float64    `json:"sim_s"`   // host seconds of the simulate phase
	SimOps     uint64     `json:"sim_ops"` // simulated ops retired
	Ops        []opResult `json:"ops"`

	// Layer holds the per-layer metrics: simulated counts always, times
	// only on traced passes. Prof holds CPU-profile samples by layer.
	Layer map[string]float64 `json:"layer"`
	Prof  map[string]int64   `json:"prof,omitempty"`
}

// probe is a pass's instrumentation: everything is nil on untraced passes.
type probe struct {
	rec  *recorder
	next *nextTimer
}

func newProbe(traced bool) probe {
	if !traced {
		return probe{}
	}
	return probe{rec: newRecorder(), next: &nextTimer{}}
}

// layerTimes writes the span-derived per-layer times. It needs sim.events
// in m already.
func (pr probe) layerTimes(m map[string]float64) {
	run := pr.rec.total("core.run")
	next := float64(pr.next.ns) / 1e9
	m["workloads.build_s"] = pr.rec.total("workloads.build") + pr.rec.total("workloads.request_streams")
	m["compiler.compile_s"] = pr.rec.total("compiler.compile")
	m["isa.next_s"] = next
	m["isa.next_calls"] = float64(pr.next.calls)
	m["core.run_s"] = run
	if ev := m["sim.events"]; ev > 0 {
		m["sim.ns_per_event"] = (run - next) / ev * 1e9
	}
}

// measure times body as the pass's measured phase: host wall and process CPU
// seconds, and on traced passes a CPU profile and Go runtime statistics.
func measure(res *passResult, pr probe, body func() error) error {
	var ms0 runtime.MemStats
	var prof bytes.Buffer
	if pr.rec != nil {
		runtime.ReadMemStats(&ms0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	err := body()
	res.WallS = time.Since(t0).Seconds()
	res.CPUS = (cpuTime() - cpu0).Seconds()
	res.PeakRSSMB = peakRSSMB()
	if pr.rec == nil {
		return err
	}
	pprof.StopCPUProfile()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	res.Layer["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	res.Layer["go.gc_pause_s"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
	res.Layer["go.alloc_bytes"] = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	res.Prof = map[string]int64{}
	if ferr := foldProfile(prof.Bytes(), res.Prof); ferr != nil && err == nil {
		err = fmt.Errorf("perfbench: fold CPU profile: %w", ferr)
	}
	return err
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set. Every pass runs in its own
// process, so this is the peak of the pass (set-up included).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// outputOf summarises a run for the output check.
func outputOf(key string, cycles uint64, m obs.Snapshot) (output, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return output{}, err
	}
	sum := sha256.Sum256(b)
	return output{Key: key, Cycles: cycles, Digest: hex.EncodeToString(sum[:8])}, nil
}

// simCounts sums simulated counters across runs, cores and levels.
type simCounts struct {
	cpu    map[string]uint64         // cpu<i>.<field> summed over cores
	levels map[int]map[string]uint64 // l<n>[c<i>].<field> summed over cores
	other  map[string]uint64         // every other counter, by name
	cycles uint64
}

var (
	cpuName   = regexp.MustCompile(`^cpu\d*$`)
	levelName = regexp.MustCompile(`^l(\d)(c\d+)?$`)
)

func (c *simCounts) add(r *core.Results) { c.addSnapshot(r.Cycles, r.Metrics) }

func (c *simCounts) addSnapshot(cycles uint64, m obs.Snapshot) {
	if c.cpu == nil {
		c.cpu, c.levels, c.other = map[string]uint64{}, map[int]map[string]uint64{}, map[string]uint64{}
	}
	c.cycles += cycles
	for name, v := range m.Counters {
		unit, field, _ := strings.Cut(name, ".")
		switch {
		case cpuName.MatchString(unit):
			c.cpu[field] += v
		case levelName.MatchString(unit):
			n, _ := strconv.Atoi(levelName.FindStringSubmatch(unit)[1])
			if c.levels[n] == nil {
				c.levels[n] = map[string]uint64{}
			}
			c.levels[n][field] += v
		default:
			c.other[name] += v
		}
	}
}

// ops is the number of simulated ops retired.
func (c *simCounts) ops() uint64 { return c.cpu["ops"] }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// into writes the simulated per-layer metrics. The last level present is
// the LLC; every workload here has three.
func (c *simCounts) into(m map[string]float64) {
	llcLevel := 0
	var coalesced, stalls uint64
	for n, f := range c.levels {
		if n > llcLevel {
			llcLevel = n
		}
		coalesced += f["mshr_coalesced"]
		stalls += f["mshr_stalls"]
	}
	l1, l2, llc := c.levels[1], c.levels[2], c.levels[llcLevel]
	o := c.other
	memReads := o["mem.reads.row"] + o["mem.reads.col"]
	memWrites := o["mem.writes.row"] + o["mem.writes.col"]
	f := func(v uint64) float64 { return float64(v) }
	for k, v := range map[string]float64{
		"core.cpu.ops":                     f(c.cpu["ops"]),
		"core.cpu.stores":                  f(c.cpu["stores"]),
		"core.cpu.order_stalls":            f(c.cpu["order_stalls"]),
		"core.l1.accesses":                 f(l1["accesses"]),
		"core.l1.hit_ratio":                ratio(l1["hits"], l1["accesses"]),
		"core.l2.hit_ratio":                ratio(l2["hits"], l2["accesses"]),
		"core.llc.hit_ratio":               ratio(llc["hits"], llc["accesses"]),
		"core.llc.partial_hits":            f(llc["partial_hits"]),
		"core.l1.duplicate_evictions":      f(l1["duplicate_evictions"]),
		"core.l1.extra_tag_probes":         f(l1["extra_tag_probes"]),
		"core.mshr.coalesced":              f(coalesced),
		"core.mshr.stalls":                 f(stalls),
		"core.coherence.snoop_invalidates": f(o["coherence.snoop_invalidates"]),
		"core.coherence.snoop_flushes":     f(o["coherence.snoop_flushes"]),
		"core.llc.set_conflicts":           f(llc["set_conflicts"]),
		"core.llc.set_arb_delay":           f(llc["set_arb_delay"]),
		"sim.events":                       f(o["sim.events"]),
		"sim.cycles":                       f(c.cycles),
		"mem.reads":                        f(memReads),
		"mem.writes":                       f(memWrites),
		"mem.buffer_hit_ratio":             ratio(o["mem.buffer_hits.row"]+o["mem.buffer_hits.col"], memReads+memWrites),
		"mem.activations":                  f(o["mem.activations.row"] + o["mem.activations.col"]),
		"mem.avg_read_latency_cycles":      ratio(o["mem.read_latency_sum"], memReads),
	} {
		m[k] = v
	}
}

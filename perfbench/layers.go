package main

import "mdacache/internal/stats"

// layerMetric is one per-layer metric as BENCHMARK.json lists it.
type layerMetric struct {
	name, unit, better string
	// simulated counts repeat exactly; traced and untraced passes must agree
	// on them.
	simulated bool
}

// perLayer lists the per-layer metrics in report order. A layer that does no
// work on a workload reports 0 there (coherence on fig12, the daemon on
// fig12 and kv, the traced simulator internals on serve).
var perLayer = func() []layerMetric {
	sim := func(name, unit, better string) layerMetric { return layerMetric{name, unit, better, true} }
	host := func(name, unit string) layerMetric { return layerMetric{name, unit, "lower", false} }
	ms := []layerMetric{
		host("workloads.build_s", "s"),
		host("compiler.compile_s", "s"),
		host("isa.next_s", "s"),
		host("isa.next_calls", "count"),
		sim("core.cpu.ops", "count", "higher"),
		sim("core.cpu.stores", "count", "higher"),
		sim("core.cpu.order_stalls", "count", "lower"),
		sim("core.l1.accesses", "count", "lower"),
		sim("core.l1.hit_ratio", "ratio", "higher"),
		sim("core.l2.hit_ratio", "ratio", "higher"),
		sim("core.llc.hit_ratio", "ratio", "higher"),
		sim("core.llc.partial_hits", "count", "higher"),
		sim("core.l1.duplicate_evictions", "count", "lower"),
		sim("core.l1.extra_tag_probes", "count", "lower"),
		sim("core.mshr.coalesced", "count", "higher"),
		sim("core.mshr.stalls", "count", "lower"),
		sim("core.coherence.snoop_invalidates", "count", "lower"),
		sim("core.coherence.snoop_flushes", "count", "lower"),
		sim("core.llc.set_conflicts", "count", "lower"),
		sim("core.llc.set_arb_delay", "cycles", "lower"),
		host("core.run_s", "s"),
		sim("sim.events", "count", "lower"),
		sim("sim.cycles", "cycles", "lower"),
		host("sim.ns_per_event", "ns"),
		sim("mem.reads", "count", "lower"),
		sim("mem.writes", "count", "lower"),
		sim("mem.buffer_hit_ratio", "ratio", "higher"),
		sim("mem.activations", "count", "lower"),
		sim("mem.avg_read_latency_cycles", "cycles", "lower"),
		host("experiments.sweep_s", "s"),
		host("experiments.sweep_overhead_s", "s"),
		host("serve.submit_ms", "ms"),
		host("serve.queue_wait_ms", "ms"),
		host("serve.run_ms", "ms"),
		host("serve.notify_ms", "ms"),
		{"serve.spec_cache_hit_ratio", "ratio", "higher", false},
		{"serve.deduped_ratio", "ratio", "higher", false},
		host("serve.retries", "count"),
		host("go.gc_cycles", "count"),
		host("go.gc_pause_s", "s"),
		host("go.alloc_bytes", "bytes"),
	}
	for _, p := range profLayers {
		ms = append(ms, host(p, "frac"))
	}
	return append(ms, host("bench.trace_overhead_frac", "frac"))
}()

// layerReport computes the per-layer metrics: medians over the traced
// passes, CPU-profile shares over all their samples, and the tracing
// overhead against the untraced passes.
func layerReport(plain, traced []*passResult) []metric {
	prof := map[string]int64{}
	var samples int64
	for _, p := range traced {
		for k, v := range p.Prof {
			prof[k] += v
			samples += v
		}
	}
	wall := func(ps []*passResult) float64 {
		var v []float64
		for _, p := range ps {
			v = append(v, p.WallS)
		}
		return stats.Median(v)
	}
	var out []metric
	for _, l := range perLayer {
		var v float64
		switch {
		case l.name == "bench.trace_overhead_frac":
			v = (wall(traced) - wall(plain)) / wall(plain)
		case l.unit == "frac":
			v = ratio(uint64(prof[l.name]), uint64(samples))
		default:
			var vals []float64
			for _, p := range traced {
				vals = append(vals, p.Layer[l.name])
			}
			v = stats.Median(vals)
		}
		out = append(out, metric{l.name, v, l.unit})
	}
	return out
}

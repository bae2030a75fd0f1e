package main

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"mdacache/internal/compiler"
	"mdacache/internal/core"
	"mdacache/internal/experiments"
	"mdacache/internal/isa"
	"mdacache/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden.json from experiments.Run")

// otherSeed is a second seed, so that neither the output check nor the
// numbers are tuned to the default stream.
const otherSeed = 2

// TestGolden pins golden.json to experiments.Run of every fig12 spec and of
// the kv spec at the default seed.
func TestGolden(t *testing.T) {
	specs := append(fig12Specs(defaultSeed), kvSpec(defaultSeed))
	g := golden{Seed: defaultSeed}
	for _, spec := range specs {
		r, err := experiments.Run(spec)
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		out, err := outputOf(spec.String(), r.Cycles, r.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		g.Outputs = append(g.Outputs, out)
	}
	sort.Slice(g.Outputs, func(i, j int) bool { return g.Outputs[i].Key < g.Outputs[j].Key })
	if *update {
		b, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var want golden
	if err := json.Unmarshal(goldenJSON, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, want) {
		t.Fatalf("golden.json is stale; rerun with -update\ngot  %+v\nwant %+v", g, want)
	}
}

// TestTracedKernelMatchesRun checks that the layer-by-layer traced path of
// fig12 gives exactly what experiments.Run gives.
func TestTracedKernelMatchesRun(t *testing.T) {
	pr := newProbe(true)
	for _, spec := range fig12Specs(defaultSeed) {
		want, err := experiments.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runKernelTraced(context.Background(), spec, experiments.Instrument{}, pr, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: traced results differ from experiments.Run", spec)
		}
	}
	if pr.next.calls == 0 || pr.next.ns == 0 {
		t.Fatalf("trace wrapper timed nothing: %+v", *pr.next)
	}
}

// TestKVTracedMatchesUntraced runs kv at the second seed traced and untraced;
// both must equal a direct experiments.Run of the same spec.
func TestKVTracedMatchesUntraced(t *testing.T) {
	exp, err := expectedOutputs("kv", otherSeed)
	if err != nil {
		t.Fatal(err)
	}
	var layers []map[string]float64
	for _, traced := range []bool{false, true} {
		p, err := kvPass(otherSeed, newProbe(traced))
		if err != nil {
			t.Fatal(err)
		}
		if _, failed := checkPass(p, exp); failed != 0 {
			t.Fatalf("traced=%v: %d failed operations", traced, failed)
		}
		layers = append(layers, p.Layer)
	}
	if diff := countsDiff(layers[0], layers[1]); diff != "" {
		t.Fatalf("traced counts differ: %s", diff)
	}
	if layers[1]["isa.next_calls"] == 0 || layers[1]["core.coherence.snoop_invalidates"] == 0 {
		t.Fatalf("traced kv pass recorded no trace calls or no coherence traffic: %v", layers[1])
	}
}

// TestWrapperForwardsBlocker drives a two-core machine from a sharded trace,
// whose shards block on backpressure: without isa.Blocker on the wrapper the
// CPU would take a refused pull for the end of its trace.
func TestWrapperForwardsBlocker(t *testing.T) {
	spec := experiments.RunSpec{Bench: "sobel", N: 32, Design: core.D1DiffSet, LLCBytes: core.MB, Scale: 16, Cores: 2}
	want, err := experiments.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	kern, err := workloads.Build(spec.Bench, spec.N)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(kern, compiler.Target{Logical2D: spec.Design.Logical2D()})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traces := wrapTraces(&nextTimer{}, experiments.ShardTrace(prog.Trace(), 2))
	for _, tr := range traces {
		if _, ok := tr.(isa.Blocker); !ok {
			t.Fatal("wrapper of a blocking shard does not implement isa.Blocker")
		}
	}
	got, err := m.RunTraces(traces...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("two-core run through the wrapper differs from experiments.Run")
	}
}

// TestWrapperForwardsCloser checks that closing the wrapper stops the
// generator goroutine of a streamed trace.
func TestWrapperForwardsCloser(t *testing.T) {
	stopped := make(chan struct{})
	src := isa.Stream(func(emit func(isa.Op) bool) {
		defer close(stopped)
		for emit(isa.Op{}) {
		}
	})
	tr := wrapTraces(&nextTimer{}, []isa.TraceReader{src})[0]
	if _, ok := tr.(isa.Blocker); ok {
		t.Fatal("wrapper of a non-blocking trace claims isa.Blocker")
	}
	tr.Next()
	c, ok := tr.(isa.Closer)
	if !ok {
		t.Fatal("wrapper does not implement isa.Closer")
	}
	c.Close()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("generator still running after Close")
	}
}

// TestSecondSeed runs fig12 and serve passes at the second seed through the
// output check.
func TestSecondSeed(t *testing.T) {
	for _, w := range []string{"fig12", "serve"} {
		exp, err := expectedOutputs(w, otherSeed)
		if err != nil {
			t.Fatal(err)
		}
		p, err := runPass(w, otherSeed, false)
		if err != nil {
			t.Fatal(err)
		}
		if attempted, failed := checkPass(p, exp); failed != 0 || attempted == 0 {
			t.Fatalf("%s: %d of %d operations failed", w, failed, attempted)
		}
	}
}

// TestFailedPassReports checks that a pass whose every operation failed, so
// that nothing was simulated, still yields a printable result line with
// correct false and its failures counted, on every workload.
func TestFailedPassReports(t *testing.T) {
	for _, w := range workloadNames {
		exp, err := expectedOutputs(w, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		p := &passResult{Workload: w, WallS: 1, CPUS: 1, PeakRSSMB: 1, SetupS: 1,
			Ops: []opResult{{Err: "simulated failure"}, {Outputs: []output{{Key: "no such run"}}}}}
		attempted, failed := checkPass(p, exp)
		if attempted != 2 || failed != 2 {
			t.Fatalf("%s: %d of %d operations failed, want 2 of 2", w, failed, attempted)
		}
		ps := []*passResult{p}
		refs := []refSample{{refNominalS, refNominalS}}
		report := endToEnd(ps, refMedian(refs))
		all := append(report, extraEndToEnd(w, ps, refs, attempted, failed)...)
		for _, m := range all {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Fatalf("%s: %s = %v", w, m.Name, m.Value)
			}
		}
		line, err := resultLine(all, attempted, failed)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		var got struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]metric
		}
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if got.Correct || got.Attempted != 2 || got.Failed != 2 || got.Metrics["error_rate"].Value != 1 {
			t.Fatalf("%s: result line %s", w, line)
		}
	}
}

// TestEndToEndScaling checks that the gated times are the host's scaled to
// reference speed, wall times by refLoop's wall time and CPU times by its
// CPU time, and that the host's own values are reported unscaled.
func TestEndToEndScaling(t *testing.T) {
	ps := []*passResult{{WallS: 2, CPUS: 3, PeakRSSMB: 7, SetupS: 0.5, SimOps: 100, SimS: 2}}
	// A host at half the reference speed, a quarter of whose time went to
	// other tenants during refLoop.
	refs := []refSample{{2 * refNominalS, 1.5 * refNominalS}, {2 * refNominalS, 1.5 * refNominalS}}
	got := map[string]float64{}
	for _, m := range append(endToEnd(ps, refMedian(refs)), extraEndToEnd("kv", ps, refs, 1, 0)...) {
		got[m.Name] = m.Value
	}
	want := map[string]float64{
		"wall_s": 1, "cpu_s": 2, "peak_rss_mb": 7, "setup_s": 1.0 / 3, "simops_per_s": 100,
		"error_rate": 0, "ref_wall_s": 2 * refNominalS, "ref_cpu_s": 1.5 * refNominalS,
		"host_wall_s": 2, "host_cpu_s": 3, "host_setup_s": 0.5, "host_simops_per_s": 50,
	}
	if len(got) != len(want) {
		t.Fatalf("metrics %v, want %v", got, want)
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || math.Abs(g-w) > 1e-12*math.Abs(w) {
			t.Fatalf("%s = %v, want %v", k, g, w)
		}
	}
}

// TestServeTraced runs a traced serve pass, whose two clients record spans
// concurrently, through the output check.
func TestServeTraced(t *testing.T) {
	exp, err := expectedOutputs("serve", defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	pr := newProbe(true)
	p, err := servePass(defaultSeed, pr)
	if err != nil {
		t.Fatal(err)
	}
	if _, failed := checkPass(p, exp); failed != 0 {
		t.Fatalf("%d failed jobs", failed)
	}
	if r := p.Layer["serve.spec_cache_hit_ratio"]; r < 0.5 {
		t.Fatalf("spec cache hit ratio %v, want about 3/4", r)
	}
	n := 0
	for _, sp := range pr.rec.spans {
		if sp.Name == "serve.watch" && sp.End > sp.Start {
			n++
		}
	}
	if n != serveJobs {
		t.Fatalf("%d watch spans, want %d", n, serveJobs)
	}
}

// TestServeJobList checks the stated repeat share: exactly one first use
// per pool spec, the rest repeats.
func TestServeJobList(t *testing.T) {
	for _, seed := range []uint64{defaultSeed, otherSeed} {
		jobs := serveJobList(seed)
		seen := map[string]int{}
		for _, j := range jobs {
			if len(j.Specs) != 2 {
				t.Fatalf("job has %d specs", len(j.Specs))
			}
			for _, s := range j.Specs {
				b, _ := json.Marshal(s)
				seen[string(b)]++
			}
		}
		if len(jobs) != serveJobs || len(seen) != len(servePool()) {
			t.Fatalf("seed %d: %d jobs over %d distinct specs", seed, len(jobs), len(seen))
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics printed in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var workloads, e2e, layer []string
	for _, w := range bj.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, m.Name+" "+m.Unit+" "+m.Better)
	}
	var wantE2E, wantLayer []string
	for _, m := range endToEnd([]*passResult{{SimS: 1}}, refSample{refNominalS, refNominalS}) {
		wantE2E = append(wantE2E, m.Name+" "+m.Unit)
	}
	for _, l := range perLayer {
		wantLayer = append(wantLayer, l.name+" "+l.unit+" "+l.better)
	}
	if !reflect.DeepEqual(workloads, workloadNames) || !reflect.DeepEqual(e2e, wantE2E) || !reflect.DeepEqual(layer, wantLayer) {
		t.Fatalf("BENCHMARK.json lists\n%v\n%v\n%v\nthe benchmark prints\n%v\n%v\n%v", workloads, e2e, layer, workloadNames, wantE2E, wantLayer)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []frame
		want  string
	}{
		{[]frame{{"mdacache/internal/core.(*Cache1P).find", "/x/internal/core/cache1p.go"}}, "prof.core.cache1p"},
		{[]frame{{"runtime.mallocgc", ""}, {"mdacache/internal/core.(*CPU).pump", "/x/internal/core/cpu.go"}}, "prof.core.cpu"},
		{[]frame{{"runtime.mapaccess2", ""}, {"mdacache/internal/compiler.Expr.Eval", "/x/compiler/expr.go"}}, "prof.go.maps"},
		{[]frame{{"syscall.Syscall", ""}, {"mdacache/internal/serve.(*store).saveJob", "/x/serve/store.go"}}, "prof.syscall"},
		{[]frame{{"runtime.scanobject", ""}, {"runtime.gcDrain", ""}, {"runtime.gcBgMarkWorker", ""}}, "prof.go.gc"},
		{[]frame{{"encoding/json.Marshal", ""}, {"mdacache/internal/serve.(*Client).do", "/x/serve/client.go"}}, "prof.serve.client"},
		{[]frame{{"mdacache/internal/sim.(*EventQueue).RunBounded", ""}}, "prof.sim"},
		{[]frame{{"runtime.futex", ""}}, "prof.go.other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"mdacache/internal/compiler"
	"mdacache/internal/core"
	"mdacache/internal/experiments"
	"mdacache/internal/isa"
	"mdacache/internal/obs"
	"mdacache/internal/stats"
	"mdacache/internal/workloads"
)

// The fig12 workload is the paper's Fig. 12 sweep at bench scale: four
// kernels × the baseline and the three MDACache designs, 1 MB LLC, Scale 8.
var (
	fig12Benches = []string{"sgemm", "strmm", "sobel", "htap2"}
	fig12Designs = []core.Design{core.D0Baseline, core.D1DiffSet, core.D1SameSet, core.D2Sparse}
	// fig12Paper are the paper's average normalized cycles for the three
	// MDACache designs at the 1 MB LLC (experiments.Report).
	fig12Paper = []float64{0.36, 0.28, 0.35}
)

const (
	fig12N     = 64
	fig12Scale = 8
	fig12LLC   = 1 * core.MB
)

// fig12Specs lists the sweep in a seed-chosen order. The kernels are the
// paper's and take no seed, so the seed only permutes the run order; every
// run starts from cold caches, so the outputs do not depend on it.
func fig12Specs(seed uint64) []experiments.RunSpec {
	var specs []experiments.RunSpec
	for _, b := range fig12Benches {
		for _, d := range fig12Designs {
			specs = append(specs, experiments.RunSpec{Bench: b, N: fig12N, Design: d, LLCBytes: fig12LLC, Scale: fig12Scale})
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x12))
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// fig12Pass runs the sweep once through experiments.RunSweep with one
// worker. Set-up is building the specs and the first machine.
func fig12Pass(seed uint64, pr probe) (*passResult, error) {
	res := &passResult{Workload: "fig12", Traced: pr.rec != nil, Layer: map[string]float64{}}
	t0 := time.Now()
	specs := fig12Specs(seed)
	cfg, err := specs[0].Config()
	if err != nil {
		return nil, err
	}
	if _, err := core.Build(cfg); err != nil {
		return nil, err
	}
	res.SetupS = time.Since(t0).Seconds()

	var runs []experiments.SweepRun
	opt := experiments.SweepOptions{Workers: 1, Profile: true}
	err = measure(res, pr, func() error {
		end, sweepID := pr.rec.begin("experiments.sweep", "", 0)
		defer end()
		if pr.rec != nil {
			opt.Run = func(ctx context.Context, spec experiments.RunSpec, ins experiments.Instrument) (*core.Results, error) {
				return runKernelTraced(ctx, spec, ins, pr, sweepID)
			}
		}
		var err error
		runs, err = experiments.RunSweep(context.Background(), specs, opt)
		return err
	})
	if err != nil {
		return nil, err
	}
	var counts simCounts
	for _, run := range runs {
		var op opResult
		if !run.OK() {
			op.Err = run.Err
			res.Ops = append(res.Ops, op)
			continue
		}
		out, err := outputOf(run.Spec.String(), run.Results.Cycles, run.Results.Metrics)
		if err != nil {
			return nil, err
		}
		op.Outputs = []output{out}
		res.Ops = append(res.Ops, op)
		counts.add(run.Results)
		for _, ph := range run.Profile.Phases {
			if ph.Name == "simulate" {
				res.SimS += ph.Wall.Seconds()
			}
		}
	}
	res.SimOps = counts.ops()
	counts.into(res.Layer)
	if pr.rec != nil {
		sweep := pr.rec.total("experiments.sweep")
		res.Layer["experiments.sweep_s"] = sweep
		res.Layer["experiments.sweep_overhead_s"] = sweep - pr.rec.total("experiments.run")
		pr.layerTimes(res.Layer)
	}
	return res, nil
}

// runKernelTraced is experiments.RunKernelInstrumentedCtx for a one-core
// spec without tiling, taken apart so that each layer's public entry point
// runs inside its own span and the trace is timed per Next call.
func runKernelTraced(ctx context.Context, spec experiments.RunSpec, ins experiments.Instrument, pr probe, parent int) (*core.Results, error) {
	if spec.Cores > 1 || spec.TileSize > 0 || spec.Workload != "" {
		return nil, fmt.Errorf("perfbench: traced path supports one-core kernel specs only, got %v", spec)
	}
	endRun, runID := pr.rec.begin("experiments.run", spec.String(), parent)
	defer endRun()
	phase := func(name string, t0 time.Time) {
		ins.Profile.Add(obs.ProfilePhase{Name: name, Wall: time.Since(t0)})
	}

	t0 := time.Now()
	end, _ := pr.rec.begin("workloads.build", spec.String(), runID)
	kern, err := workloads.Build(spec.Bench, spec.N)
	end()
	if err != nil {
		return nil, err
	}
	phase("workload", t0)

	t0 = time.Now()
	end, _ = pr.rec.begin("compiler.compile", spec.String(), runID)
	prog, err := compiler.Compile(kern, compiler.Target{Logical2D: spec.Design.Logical2D(), Layout: spec.LayoutOverride})
	end()
	if err != nil {
		return nil, err
	}
	phase("compile", t0)

	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	end, _ = pr.rec.begin("core.build", spec.String(), runID)
	m, err := core.Build(cfg)
	end()
	if err != nil {
		return nil, err
	}
	phase("build", t0)

	t0 = time.Now()
	end, _ = pr.rec.begin("core.run", spec.String(), runID)
	r, err := m.RunTracesCtx(ctx, wrapTraces(pr.next, []isa.TraceReader{prog.Trace()})...)
	end()
	if err != nil {
		return nil, err
	}
	events, _ := r.Metrics.Counter("sim.events")
	ins.Profile.Add(obs.ProfilePhase{Name: "simulate", Wall: time.Since(t0), Cycles: r.Cycles, Events: events})
	return r, nil
}

// paperErr is the mean |measured − paper| over the three MDACache designs'
// average normalized cycles (arithmetic mean over kernels, as in
// experiments.Report).
func paperErr(cycles map[string]uint64) float64 {
	var sum float64
	for di, d := range fig12Designs[1:] {
		var norms []float64
		for _, b := range fig12Benches {
			key := func(d core.Design) string {
				return experiments.RunSpec{Bench: b, N: fig12N, Design: d, LLCBytes: fig12LLC, Scale: fig12Scale}.String()
			}
			base := cycles[key(core.D0Baseline)]
			if base == 0 {
				return 0
			}
			norms = append(norms, float64(cycles[key(d)])/float64(base))
		}
		diff := stats.Mean(norms) - fig12Paper[di]
		if diff < 0 {
			diff = -diff
		}
		sum += diff
	}
	return sum / float64(len(fig12Paper))
}

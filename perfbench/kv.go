package main

import (
	"context"
	"time"

	"mdacache/internal/core"
	"mdacache/internal/experiments"
	"mdacache/internal/workloads"
)

// kvOps is the request-stream length of one kv pass.
const kvOps = 1_000_000

// kvSpec is the kv workload as an experiments.RunSpec: a Zipf-0.99 KV
// request stream from 16 clients on 4 cores, 50% reads, 2P2L LLC of 1 MB.
// experiments.Run of this spec is the reference the output check uses.
func kvSpec(seed uint64) experiments.RunSpec {
	return experiments.RunSpec{
		Workload: "kv", N: 64, Design: core.D2Sparse, LLCBytes: 1 * core.MB, Scale: 8,
		Cores: 4, Clients: 16, Ops: kvOps, Zipf: 0.99, ReadRatio: 0.5, WorkloadSeed: seed,
	}
}

// kvPass runs the request stream straight through core.Build,
// workloads.RequestStreams and Machine.RunTracesCtx; no compiler is
// involved. Set-up is building the machine and the streams.
func kvPass(seed uint64, pr probe) (*passResult, error) {
	res := &passResult{Workload: "kv", Traced: pr.rec != nil, Layer: map[string]float64{}}
	spec := kvSpec(seed)
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	// The machine is built before the streams, whose generator goroutines
	// start producing at once and would otherwise compete with set-up.
	t0 := time.Now()
	end, _ := pr.rec.begin("core.build", spec.String(), 0)
	m, err := core.Build(cfg)
	end()
	if err != nil {
		return nil, err
	}
	end, _ = pr.rec.begin("workloads.request_streams", spec.String(), 0)
	streams, err := workloads.RequestStreams(workloads.ReqSpec{
		Workload: spec.Workload, N: spec.N, Cores: spec.Cores, Clients: spec.Clients, Ops: spec.Ops,
		Zipf: spec.Zipf, ReadRatio: spec.ReadRatio, Seed: spec.WorkloadSeed, Logical2D: spec.Design.Logical2D(),
	})
	end()
	if err != nil {
		return nil, err
	}
	res.SetupS = time.Since(t0).Seconds()

	var r *core.Results
	err = measure(res, pr, func() error {
		end, _ := pr.rec.begin("core.run", spec.String(), 0)
		defer end()
		var err error
		r, err = m.RunTracesCtx(context.Background(), wrapTraces(pr.next, streams)...)
		return err
	})
	var op opResult
	if err != nil {
		op.Err = err.Error()
		res.Ops = []opResult{op}
		return res, nil
	}
	out, err := outputOf(spec.String(), r.Cycles, r.Metrics)
	if err != nil {
		return nil, err
	}
	op.Outputs = []output{out}
	res.Ops = []opResult{op}
	res.SimS = res.WallS
	var counts simCounts
	counts.add(r)
	res.SimOps = counts.ops()
	counts.into(res.Layer)
	if pr.rec != nil {
		pr.layerTimes(res.Layer)
	}
	return res, nil
}

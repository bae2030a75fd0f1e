// Command perfbench is the repository's benchmark. It runs one named
// workload through the program's public entry points for a fixed time,
// checks every simulated output, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics of a traced run) as the last line of its
// standard output:
//
//	bash perfbench/run.sh --workload fig12 --seed 1 --seconds 30 --trace 0
//
// Each pass runs in a child process of its own, so CPU time and peak memory
// are those of one pass. README.md lists the workloads, the metrics and
// what each layer metric predicts.
package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"mdacache/internal/experiments"
	"mdacache/internal/stats"
)

// buildDir holds everything the benchmark writes, relative to the checkout.
const buildDir = ".bench_build"

// defaultSeed is the pinned workload seed; golden.json holds its outputs.
const defaultSeed = 1

var workloadNames = []string{"fig12", "kv", "serve"}

// passProcs is the GOMAXPROCS of every pass and of the driver. A pass's
// goroutines (the simulator and its codegen or request generators; the
// daemon and its clients) then share one P, so the pass's wall time follows
// its own work and not how much of a second CPU other processes leave it:
// on a 2-CPU host, one busy loop beside a serve pass made it 54% slower with
// two Ps and 2% slower with one. The driver runs refLoop at the same
// setting.
const passProcs = 1

func main() {
	workload := flag.String("workload", "", "workload: fig12, kv or serve")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	pass := flag.Bool("pass", false, "run one pass and print its result as JSON (the driver's child mode)")
	traced := flag.Bool("traced", false, "with -pass: record spans and a CPU profile")
	flag.Parse()
	runtime.GOMAXPROCS(passProcs)
	if !validWorkload(*workload) || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --trace 0|1 and --seconds > 0\n", strings.Join(workloadNames, "|"))
		os.Exit(2)
	}
	var err error
	if *pass {
		err = childPass(*workload, *seed, *traced)
	} else {
		err = drive(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func validWorkload(w string) bool {
	for _, n := range workloadNames {
		if n == w {
			return true
		}
	}
	return false
}

// runPass runs one pass of the workload in this process.
func runPass(workload string, seed uint64, traced bool) (*passResult, error) {
	pr := newProbe(traced)
	var res *passResult
	var err error
	switch workload {
	case "fig12":
		res, err = fig12Pass(seed, pr)
	case "kv":
		res, err = kvPass(seed, pr)
	default:
		res, err = servePass(seed, pr)
	}
	if err != nil {
		return nil, err
	}
	res.GOMAXPROCS = runtime.GOMAXPROCS(0)
	if !traced {
		return res, nil
	}
	return res, pr.rec.write(spanPath(workload, seed))
}

func childPass(workload string, seed uint64, traced bool) error {
	res, err := runPass(workload, seed, traced)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawnPass runs one pass in a child process and waits for it.
func spawnPass(workload string, seed uint64, traced bool) (*passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, "-pass", "-workload", workload,
		"-seed", strconv.FormatUint(seed, 10), "-traced="+strconv.FormatBool(traced))
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("pass of %s: %w", workload, err)
	}
	var res passResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("pass of %s: %w", workload, err)
	}
	return &res, nil
}

// drive runs passes for the given time, checks every output and prints the
// metrics. It times refLoop before every pass and once after the last. With
// traced set it alternates untraced and traced passes and reports the
// per-layer metrics.
func drive(workload string, seed uint64, d time.Duration, traced bool) error {
	host := hostFacts()
	expected, err := expectedOutputs(workload, seed)
	if err != nil {
		return fmt.Errorf("expected outputs: %w", err)
	}
	var plain, withTrace []*passResult
	var refs []refSample
	attempted, failed := 0, 0
	start := time.Now()
	for i := 0; ; i++ {
		tracedPass := traced && i%2 == 1
		refs = append(refs, refLoop())
		p, err := spawnPass(workload, seed, tracedPass)
		if err != nil {
			return err
		}
		a, f := checkPass(p, expected)
		attempted, failed = attempted+a, failed+f
		if tracedPass {
			withTrace = append(withTrace, p)
		} else {
			plain = append(plain, p)
		}
		if time.Since(start) >= d && (!traced || len(withTrace) > 0) {
			break
		}
	}
	refs = append(refs, refLoop())
	for _, p := range withTrace {
		if diff := countsDiff(plain[0].Layer, p.Layer); diff != "" {
			fmt.Fprintf(os.Stderr, "perfbench: traced pass differs from untraced pass in %s\n", diff)
			failed += len(p.Ops)
		}
	}

	var all []metric
	var report []metric
	if traced {
		report = layerReport(plain, withTrace)
		all = report
	} else {
		report = endToEnd(plain, refMedian(refs))
		all = append(report, extraEndToEnd(workload, plain, refs, attempted, failed)...)
	}
	if err := writeRecord(workload, seed, traced, host, all, append(plain, withTrace...), refs, attempted, failed); err != nil {
		return err
	}
	hostJSON, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", hostJSON)
	fmt.Printf("workload %s seed %d: %d passes (%d traced) at GOMAXPROCS %d, %d operations, %d failed\n",
		workload, seed, len(plain)+len(withTrace), len(withTrace), plain[0].GOMAXPROCS, attempted, failed)
	for _, m := range all {
		fmt.Printf("  %-36s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
	line, err := resultLine(report, attempted, failed)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// resultLine is the JSON object the run prints last.
func resultLine(report []metric, attempted, failed int) ([]byte, error) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, map[string]metric{}}
	for _, m := range report {
		out.Metrics[m.Name] = m
	}
	return json.Marshal(out)
}

type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics BENCHMARK.json gates: medians over the untraced
// passes, with every time scaled to reference speed (hostref.go) by the
// run's median refLoop times ref. Each means the same on every workload.
func endToEnd(ps []*passResult, ref refSample) []metric {
	wall, cpu := refNominalS/ref.Wall, refNominalS/ref.CPU
	h := hostMedians(ps)
	return []metric{
		{"wall_s", h.wall * wall, "s"},
		{"cpu_s", h.cpu * cpu, "s"},
		{"peak_rss_mb", h.rss, "MB"},
		{"setup_s", h.setup * cpu, "s"},
		{"simops_per_s", h.simops / wall, "1/s"},
	}
}

// hostTimes are medians over passes of what the host measured, unscaled.
type hostTimes struct{ wall, cpu, rss, setup, simops float64 }

func hostMedians(ps []*passResult) hostTimes {
	med := func(f func(p *passResult) float64) float64 {
		var v []float64
		for _, p := range ps {
			v = append(v, f(p))
		}
		return stats.Median(v)
	}
	return hostTimes{
		wall:   med(func(p *passResult) float64 { return p.WallS }),
		cpu:    med(func(p *passResult) float64 { return p.CPUS }),
		rss:    med(func(p *passResult) float64 { return p.PeakRSSMB }),
		setup:  med(func(p *passResult) float64 { return p.SetupS }),
		simops: med(func(p *passResult) float64 { return perSecond(p.SimOps, p.SimS) }),
	}
}

// perSecond is n per s seconds, or 0 when nothing was measured: a pass whose
// runs all failed has no simulate phase, and NaN would not encode as JSON.
func perSecond(n uint64, s float64) float64 {
	if s <= 0 {
		return 0
	}
	return float64(n) / s
}

// extraEndToEnd are the end-to-end metrics BENCHMARK.json does not gate:
// those that are 0 when the program is correct (error_rate) or exist on one
// workload only, and the unscaled host values behind the gated ones. They
// are printed and recorded all the same.
func extraEndToEnd(workload string, ps []*passResult, refs []refSample, attempted, failed int) []metric {
	h := hostMedians(ps)
	ref := refMedian(refs)
	out := []metric{
		{"error_rate", float64(failed) / float64(attempted), "ratio"},
		{"ref_wall_s", ref.Wall, "s"},
		{"ref_cpu_s", ref.CPU, "s"},
		{"host_wall_s", h.wall, "s"},
		{"host_cpu_s", h.cpu, "s"},
		{"host_setup_s", h.setup, "s"},
		{"host_simops_per_s", h.simops, "1/s"},
	}
	switch workload {
	case "fig12":
		cycles := map[string]uint64{}
		for _, op := range ps[0].Ops {
			for _, o := range op.Outputs {
				cycles[o.Key] = o.Cycles
			}
		}
		out = append(out, metric{"paper_err", paperErr(cycles), "ratio"})
	case "serve":
		var lat, rate []float64
		for _, p := range ps {
			for _, op := range p.Ops {
				lat = append(lat, op.LatMS)
			}
			rate = append(rate, float64(len(p.Ops))/p.WallS)
		}
		out = append(out,
			metric{"job_p50_ms", percentile(lat, 0.50), "ms"},
			metric{"job_p95_ms", percentile(lat, 0.95), "ms"},
			metric{"job_samples", float64(len(lat)), "count"},
			metric{"jobs_per_s", stats.Median(rate), "1/s"})
	}
	return out
}

// percentile is the nearest-rank percentile.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// checkPass compares every output of a pass with the expected outputs. An
// operation fails on an error or on any output that differs.
func checkPass(p *passResult, expected map[string]output) (attempted, failed int) {
	for _, op := range p.Ops {
		attempted++
		bad := op.Err
		if bad == "" && len(op.Outputs) == 0 {
			bad = "no output"
		}
		for _, o := range op.Outputs {
			if e, ok := expected[o.Key]; !ok || e != o {
				bad = fmt.Sprintf("output %+v, want %+v", o, e)
				break
			}
		}
		if bad != "" {
			failed++
			if failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: %s operation failed: %s\n", p.Workload, bad)
			}
		}
	}
	return attempted, failed
}

// countsDiff names the first simulated count that differs between two
// passes' layer metrics, or returns "".
func countsDiff(a, b map[string]float64) string {
	for _, l := range perLayer {
		if l.simulated && a[l.name] != b[l.name] {
			return fmt.Sprintf("%s (%v vs %v)", l.name, a[l.name], b[l.name])
		}
	}
	return ""
}

//go:embed golden.json
var goldenJSON []byte

// golden holds the outputs of the default seed, made by experiments.Run.
type golden struct {
	Seed    uint64   `json:"seed"`
	Outputs []output `json:"outputs"`
}

// expectedOutputs returns the outputs every pass must reproduce, by run key.
// fig12 and the default kv seed come from golden.json; other kv seeds and
// every serve spec come from a direct experiments.Run of the same spec.
func expectedOutputs(workload string, seed uint64) (map[string]output, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, err
	}
	exp := map[string]output{}
	for _, o := range g.Outputs {
		exp[o.Key] = o
	}
	var specs []experiments.RunSpec
	switch workload {
	case "fig12":
		return exp, nil
	case "kv":
		if seed == g.Seed {
			return exp, nil
		}
		specs = append(specs, kvSpec(seed))
	case "serve":
		for _, req := range servePool() {
			spec, err := req.Spec()
			if err != nil {
				return nil, err
			}
			specs = append(specs, spec)
		}
	}
	for _, spec := range specs {
		r, err := experiments.Run(spec)
		if err != nil {
			return nil, err
		}
		out, err := outputOf(spec.String(), r.Cycles, r.Metrics)
		if err != nil {
			return nil, err
		}
		exp[out.Key] = out
	}
	return exp, nil
}

// hostInfo describes the host and the code a result was measured on;
// results from unlike hosts must not be compared.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceSHA  string `json:"source_sha256"`
}

func hostFacts() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		CPUModel:   "unknown",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		SourceSHA:  sourceDigest("."),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// sourceDigest hashes go.mod and every .go file under root, skipping
// hidden directories. It names the code even where there is no git commit.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeRecord stores the result with its host facts and every pass under
// buildDir.
func writeRecord(workload string, seed uint64, traced bool, host hostInfo, ms []metric, ps []*passResult, refs []refSample, attempted, failed int) error {
	type passTimes struct {
		Traced                         bool
		GOMAXPROCS                     int
		WallS, CPUS, PeakRSSMB, SetupS float64
	}
	rec := struct {
		Workload  string             `json:"workload"`
		Seed      uint64             `json:"seed"`
		Traced    bool               `json:"traced"`
		Host      hostInfo           `json:"host"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]float64 `json:"metrics"`
		Passes    []passTimes        `json:"passes"`
		Refs      []refSample        `json:"refs"`
	}{workload, seed, traced, host, attempted, failed, map[string]float64{}, nil, refs}
	for _, p := range ps {
		rec.Passes = append(rec.Passes, passTimes{p.Traced, p.GOMAXPROCS, p.WallS, p.CPUS, p.PeakRSSMB, p.SetupS})
	}
	for _, m := range ms {
		rec.Metrics[m.Name] = m.Value
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if traced {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, trace)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// Command perfbench is the repository's benchmark. It runs one workload —
// offline Solver.Solve on a scenario family, or a busyschedd subprocess
// driven over the framed wire — for a fixed time, checks every output, and
// prints its metrics, one per line with their unit, then a one-line JSON
// result. With -trace 1 it times the calls into each layer's public
// functions instead and prints the per-layer metrics.
//
// Run it through run.py, which builds this command and busyschedd first:
//
//	python3 perfbench/run.py --workload offline-diurnal --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupRounds is how many times a run sets its workload up; setup_s is
// the median.
const setupRounds = 5

// offlineWorkloads and the wire workload are the benchmark's workloads at
// full size; BENCHMARK.json records why each was chosen.
var offlineWorkloads = map[string]offlineSpec{
	"offline-diurnal":   {scenario: "diurnal", n: 100_000, algorithm: "firstfit", instances: 8},
	"offline-lightpath": {scenario: "lightpath", n: 10_000, algorithm: "bestfit", instances: 8},
	"offline-clustered": {scenario: "clustered", n: 100_000, algorithm: "firstfit", intra: true, instances: 8},
}

var wireWorkload = wireSpec{
	g: 8, conns: 1, tenants: 8, batch: 16, live: 1000, maxDemand: 4,
	rate: 200_000, openShare: 0.6, chunk: 1 << 16, window: 4,
}

// offlineLayers and wireLayers are the per-layer metrics only the offline
// or only the wire workloads exercise; a traced run of the other kind
// reports them as 0.
var offlineLayers = []metric{
	{Name: "scenario.gen_ms", Unit: "ms"},
	{Name: "core.validate_ms", Unit: "ms"},
	{Name: "core.axis_ms", Unit: "ms"},
	{Name: "core.orders_ms", Unit: "ms"},
	{Name: "core.bounds_ms", Unit: "ms"},
	{Name: "algo.run_ms", Unit: "ms"},
	{Name: "algo.ns_per_job", Unit: "ns/job"},
	{Name: "core.machines", Unit: "count"},
	{Name: "core.arena_setup_allocs", Unit: "count"},
	{Name: "decomp.components", Unit: "count"},
	{Name: "decomp.workers", Unit: "count"},
	{Name: "decomp.sweep_ms", Unit: "ms"},
	{Name: "decomp.solve_ms", Unit: "ms"},
	{Name: "decomp.merge_ms", Unit: "ms"},
	{Name: "decomp.seq_ms", Unit: "ms"},
	{Name: "solver.traced_ms", Unit: "ms"},
	{Name: "solver.residual_ms", Unit: "ms"},
	{Name: "layers.coverage", Unit: "ratio"},
	{Name: "sim.replay_ms", Unit: "ms"},
	{Name: "optical.check_ms", Unit: "ms"},
	{Name: "go.alloc_mb_per_solve", Unit: "MB"},
	{Name: "go.gc_per_solve", Unit: "count"},
}

var wireLayers = []metric{
	{Name: "wire.latency_us_p99", Unit: "us"},
	{Name: "client.encode_ns_per_frame", Unit: "ns/frame"},
	{Name: "client.rtt_us_p50", Unit: "us"},
	{Name: "server.place_us_p50", Unit: "us"},
	{Name: "server.place_us_p99", Unit: "us"},
	{Name: "server.cpu_ns_per_place", Unit: "ns"},
	{Name: "online.place_ns", Unit: "ns"},
	{Name: "online.release_ns", Unit: "ns"},
	{Name: "online.expired", Unit: "count"},
	{Name: "online.compactions", Unit: "count"},
	{Name: "online.peak_live", Unit: "count"},
	{Name: "online.machines", Unit: "count"},
	{Name: "wire.overhead_ns_per_place", Unit: "ns"},
	{Name: "loadgen.late_ms_max", Unit: "ms"},
	{Name: "loadgen.late_frac", Unit: "ratio"},
}

// setAbsent reports the given metrics as 0 on a workload that does not
// exercise their layer.
func setAbsent(rep *report, absent []metric) {
	for _, m := range absent {
		rep.set(m.Name, 0, m.Unit)
	}
}

// runConfig is one run's settings.
type runConfig struct {
	seed     int64
	duration time.Duration
	trace    bool
	daemon   string // busyschedd binary (wire workload)
	spans    string // directory the traced run writes its spans to; "" skips
	corrupt  bool   // self-test: perturb results so the gates must fail
}

// dumpSpans writes the traced run's spans, after a provenance header.
func (cfg runConfig) dumpSpans(tr *tracer, rep *report) error {
	if cfg.spans == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.spans, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.spans, fmt.Sprintf("%s-seed%d.jsonl", rep.Workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	header := map[string]any{"workload": rep.Workload, "provenance": hostProvenance(cfg.seed, int(cfg.duration/time.Second), true)}
	if err := tr.dump(f, header); err != nil {
		f.Close()
		return err
	}
	rep.Details["spans"] = path
	return f.Close()
}

func workloadNames() []string {
	names := []string{"wire-stream"}
	for name := range offlineWorkloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// runWorkload runs one workload and returns its report; an error means
// the run could not complete at all (set-up failed, the daemon died).
func runWorkload(ctx context.Context, name string, cfg runConfig) (*report, error) {
	rep := newReport(name)
	var err error
	if spec, ok := offlineWorkloads[name]; ok {
		err = runOffline(ctx, spec, cfg, rep)
	} else if name == "wire-stream" {
		err = runWire(wireWorkload, cfg, rep)
	} else {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		rep.set("failed_frac", float64(rep.Failed)/float64(max(rep.Attempted, 1)), "ratio")
	}
	return rep, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", fmt.Sprintf("workload to run: %v", workloadNames()))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 times each layer and prints the per-layer metrics")
	daemon := fs.String("daemon", "", "busyschedd binary for the wire workload")
	spans := fs.String("spans", "", "directory for the traced run's span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need -seconds ≥ 1 and -trace 0 or 1")
		return 2
	}
	cfg := runConfig{
		seed:     *seed,
		duration: time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		daemon:   *daemon,
		spans:    *spans,
	}
	rep, err := runWorkload(context.Background(), *workload, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if err := rep.write(stdout, hostProvenance(cfg.seed, *seconds, cfg.trace)); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

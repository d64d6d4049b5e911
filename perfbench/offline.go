package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"busytime"
	"busytime/internal/algo"
	"busytime/internal/core"
	"busytime/internal/scenario"
	"busytime/internal/xrand"
)

// offlineSpec is one offline workload: K seeded instances of a scenario,
// solved one fresh clone at a time by a warm Solver.
type offlineSpec struct {
	scenario  string
	n         int
	algorithm string
	intra     bool // WithIntraWorkers(0): route Solve through the decomposition layer
	instances int
}

// offlineRun is a set-up offline workload.
type offlineRun struct {
	spec    offlineSpec
	params  []scenario.Params
	base    []*busytime.Instance
	check   func(scenario.Params, *core.Instance, *core.Schedule) ([]scenario.Metric, error)
	solver  *busytime.Solver
	ref     []float64 // first cost seen per base instance; NaN until solved
	ratios  []float64
	corrupt bool // perturb every result before the gates (harness self-test)
}

// instanceSeed derives the scenario seed of instance k; never 0, which the
// scenario registry reads as "use the default seed".
func instanceSeed(seed int64, k int) int64 {
	return int64(xrand.Shard(seed, k).Uint64()>>2) | 1
}

// setupOffline generates the instances, builds the Solver and warms its
// arenas with one solve.
func setupOffline(ctx context.Context, spec offlineSpec, seed int64, tr *tracer) (*offlineRun, error) {
	sc, ok := scenario.Lookup(spec.scenario)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q", spec.scenario)
	}
	o := &offlineRun{spec: spec, check: sc.Check}
	for k := 0; k < spec.instances; k++ {
		p := sc.Defaults
		p.Seed = instanceSeed(seed, k)
		p.N = spec.n
		sp := tr.begin("scenario.gen", 0, int64(k))
		in, err := sc.Instance(p)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		o.params = append(o.params, p)
		o.base = append(o.base, in)
		o.ref = append(o.ref, math.NaN())
		o.ratios = append(o.ratios, math.NaN())
	}
	opts := []busytime.Option{busytime.WithAlgorithm(spec.algorithm)}
	if spec.intra {
		opts = append(opts, busytime.WithIntraWorkers(0))
	}
	s, err := busytime.New(opts...)
	if err != nil {
		return nil, err
	}
	if _, err := s.Solve(ctx, o.base[0].Clone()); err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	o.solver = s
	return o, nil
}

// gate runs the correctness checks on one result of base instance k,
// outside any timed span: the simulator's billing cross-check, cost at or
// above the fractional lower bound, the same cost as every earlier solve of
// the instance, and the scenario's own check (lightpath: regenerators equal
// busy time, §4.2).
func (o *offlineRun) gate(k int, in *busytime.Instance, res busytime.Result, tr *tracer, req int64) error {
	if math.IsNaN(o.ratios[k]) {
		o.ratios[k] = res.Ratio()
	}
	if o.corrupt {
		res.Cost += 1
	}
	sp := tr.begin("sim.replay", 0, req)
	err := res.CrossCheck(1e-6)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("instance %d: %w", k, err)
	}
	if lb := res.LowerBound(); res.Cost < lb*(1-1e-9) {
		return fmt.Errorf("instance %d: cost %v below lower bound %v", k, res.Cost, lb)
	}
	if math.IsNaN(o.ref[k]) {
		o.ref[k] = res.Cost
	} else if res.Cost != o.ref[k] {
		return fmt.Errorf("instance %d: cost %v, earlier solve gave %v", k, res.Cost, o.ref[k])
	}
	if o.check != nil {
		sp := tr.begin("optical.check", 0, req)
		_, err := o.check(o.params[k], in, res.Schedule)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("instance %d: %w", k, err)
		}
	}
	return nil
}

// offlineSamples is what a measuring loop collected.
type offlineSamples struct {
	solve []time.Duration // one per Solve
	jobs  int
	busy  time.Duration
}

// measure solves fresh clones round-robin for d (and at least once per
// instance), timing each Solve alone.
func (o *offlineRun) measure(ctx context.Context, rep *report, d time.Duration) offlineSamples {
	var s offlineSamples
	start := time.Now()
	for i := 0; i < len(o.base) || time.Since(start) < d; i++ {
		k := i % len(o.base)
		in := o.base[k].Clone()
		t := time.Now()
		res, err := o.solver.Solve(ctx, in)
		el := time.Since(t)
		if err != nil {
			rep.gate(err)
			continue
		}
		s.solve = append(s.solve, el)
		s.jobs += in.N()
		s.busy += el
		rep.gate(o.gate(k, in, res, nil, 0))
	}
	return s
}

// layerTotals accumulates the per-request numbers of a traced offline loop.
type layerTotals struct {
	requests   int
	jobs       int
	machines   int
	setup      int
	components int
	workers    int
	alloc      uint64
	gcs        uint32
	root       []time.Duration
}

// measureTraced solves fresh clones for d, calling each layer's public entry
// point under its own span: instance preparation (validate, axis, orders,
// bounds) and then Solve on the prepared instance inside the root span, and
// after it, outside the root span, the registered algorithm's RunScratch on
// a warm arena (the kernel alone) and, on decomposed workloads, the same
// instance solved by a sequential Solver.
func (o *offlineRun) measureTraced(ctx context.Context, rep *report, d time.Duration, tr *tracer) (layerTotals, error) {
	var lt layerTotals
	a, ok := algo.Lookup(o.spec.algorithm)
	if !ok || a.RunScratch == nil {
		return lt, fmt.Errorf("algorithm %q has no RunScratch", o.spec.algorithm)
	}
	kernel := new(core.Scratch)
	a.RunScratch(o.base[0].Clone(), kernel)
	var seq *busytime.Solver
	if o.spec.intra {
		var err error
		if seq, err = busytime.New(busytime.WithAlgorithm(o.spec.algorithm)); err != nil {
			return lt, err
		}
		if _, err := seq.Solve(ctx, o.base[0].Clone()); err != nil {
			return lt, err
		}
	}
	var m0, m1 runtime.MemStats
	start := time.Now()
	for i := 0; i < len(o.base) || time.Since(start) < d; i++ {
		k, req := i%len(o.base), int64(i+1)
		in := o.base[k].Clone()
		runtime.ReadMemStats(&m0)
		root := tr.begin("solver.traced", 0, req)
		sp := tr.begin("core.validate", root.id, req)
		err := in.CachedValidate()
		tr.end(sp)
		sp = tr.begin("core.axis", root.id, req)
		in.TimeAxis()
		tr.end(sp)
		sp = tr.begin("core.orders", root.id, req)
		in.StartOrder()
		in.LengthOrder()
		tr.end(sp)
		sp = tr.begin("core.bounds", root.id, req)
		in.CachedBounds()
		tr.end(sp)
		var res busytime.Result
		if err == nil {
			sp = tr.begin("solver.solve", root.id, req)
			res, err = o.solver.Solve(ctx, in)
			tr.end(sp)
		}
		total := tr.end(root)
		runtime.ReadMemStats(&m1)
		if err != nil {
			rep.gate(err)
			continue
		}
		lt.requests++
		lt.root = append(lt.root, total)
		lt.jobs += in.N()
		lt.machines += res.Machines
		lt.setup += res.Arena.SetupAllocs
		lt.alloc += m1.TotalAlloc - m0.TotalAlloc
		lt.gcs += m1.NumGC - m0.NumGC
		if dc := res.Decomp; dc.Components > 0 {
			lt.components += dc.Components
			lt.workers += dc.Workers
			tr.add("decomp.sweep", dc.SweepTime)
			tr.add("decomp.solve", dc.SolveTime)
			tr.add("decomp.merge", dc.MergeTime)
			tr.add("decomp.reconcile", dc.ReconcileTime)
		}
		err = o.gate(k, in, res, tr, req)
		if err == nil {
			sp = tr.begin("algo.run", 0, req)
			sched := a.RunScratch(in, kernel)
			tr.end(sp)
			if c := sched.Cost(); c != res.Cost {
				err = fmt.Errorf("instance %d: kernel alone cost %v, Solve cost %v", k, c, res.Cost)
			}
		}
		if err == nil && seq != nil {
			in2 := o.base[k].Clone()
			sp = tr.begin("decomp.seq", 0, req)
			sres, serr := seq.Solve(ctx, in2)
			tr.end(sp)
			switch {
			case serr != nil:
				err = serr
			case sres.Cost != res.Cost:
				err = fmt.Errorf("instance %d: decomposed cost %v, sequential cost %v", k, res.Cost, sres.Cost)
			}
		}
		rep.gate(err)
	}
	return lt, nil
}

// runOffline sets the workload up setupRounds times (reporting the median
// set-up time and keeping the last), then measures for d.
func runOffline(ctx context.Context, spec offlineSpec, cfg runConfig, rep *report) error {
	tr := (*tracer)(nil)
	if cfg.trace {
		tr = newTracer(time.Now(), 0)
	}
	var (
		o      *offlineRun
		setups []time.Duration
	)
	for r := 0; r < setupRounds; r++ {
		o = nil
		runtime.GC() // drop the previous round, so every round starts alike
		t := time.Now()
		var err error
		if o, err = setupOffline(ctx, spec, cfg.seed, tr); err != nil {
			return err
		}
		setups = append(setups, time.Since(t))
	}
	o.corrupt = cfg.corrupt
	rep.Details["jobs_per_instance"] = spec.n
	rep.Details["instances"] = spec.instances
	rep.Details["algorithm"] = spec.algorithm
	rep.Details["setup_rounds"] = setupRounds
	if !spec.intra {
		// A sequential Solve uses one CPU, and it is measured on one, with
		// the collector on the same CPU. In interleaved runs on a 2-vCPU
		// virtual machine, this cut the run-to-run spread of the Solve time
		// by about a third against runs free to use both CPUs.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		restore, err := confine()
		if err != nil {
			return err
		}
		defer restore()
		rep.Details["measured_cpus"] = 1
		rep.Details["measured_gomaxprocs"] = 1
	}
	// One untimed pass over every instance first: each instance's first
	// solve grows the arenas to its size and faults their pages in.
	o.measure(ctx, rep, 0)
	if !cfg.trace {
		s := o.measure(ctx, rep, cfg.duration)
		rep.Details["solve_samples"] = len(s.solve)
		rep.set("setup_s", median(setups).Seconds(), "s")
		rep.set("latency_ms_p50", ms(quantile(s.solve, 0.5)), "ms")
		rep.set("latency_ms_p90", ms(quantile(s.solve, 0.9)), "ms")
		rep.set("jobs_per_s", float64(s.jobs)/s.busy.Seconds(), "jobs/s")
		rep.set("cost_ratio", meanOf(o.ratios), "ratio")
		rss, err := peakRSSMB("self")
		if err != nil {
			return err
		}
		rep.set("peak_rss_mb", rss, "MB")
		return nil
	}

	// Traced run: an untraced half gives the reference for the tracing
	// overhead, the traced half the per-layer split.
	plain := o.measure(ctx, rep, cfg.duration/2)
	lt, err := o.measureTraced(ctx, rep, cfg.duration/2, tr)
	if err != nil {
		return err
	}
	if lt.requests == 0 {
		return fmt.Errorf("traced run completed no solve")
	}
	rep.Details["solve_samples"] = len(plain.solve)
	rep.Details["traced_samples"] = lt.requests
	n := float64(lt.requests)
	prep := tr.mean("core.validate") + tr.mean("core.axis") + tr.mean("core.orders") + tr.mean("core.bounds")
	layers := prep + tr.mean("algo.run")
	if spec.intra {
		layers = prep + tr.mean("decomp.sweep") + tr.mean("decomp.solve") + tr.mean("decomp.merge") + tr.mean("decomp.reconcile")
	}
	rootMean := tr.mean("solver.traced")
	rep.set("scenario.gen_ms", ms(tr.mean("scenario.gen")), "ms")
	rep.set("core.validate_ms", ms(tr.mean("core.validate")), "ms")
	rep.set("core.axis_ms", ms(tr.mean("core.axis")), "ms")
	rep.set("core.orders_ms", ms(tr.mean("core.orders")), "ms")
	rep.set("core.bounds_ms", ms(tr.mean("core.bounds")), "ms")
	rep.set("algo.run_ms", ms(tr.mean("algo.run")), "ms")
	rep.set("algo.ns_per_job", float64(tr.total["algo.run"])/float64(lt.jobs), "ns/job")
	rep.set("core.machines", float64(lt.machines)/n, "count")
	rep.set("core.arena_setup_allocs", float64(lt.setup)/n, "count")
	rep.set("decomp.components", float64(lt.components)/n, "count")
	rep.set("decomp.workers", float64(lt.workers)/n, "count")
	rep.set("decomp.sweep_ms", ms(tr.mean("decomp.sweep")), "ms")
	rep.set("decomp.solve_ms", ms(tr.mean("decomp.solve")), "ms")
	rep.set("decomp.merge_ms", ms(tr.mean("decomp.merge")), "ms")
	rep.set("decomp.seq_ms", ms(tr.mean("decomp.seq")), "ms")
	rep.set("solver.traced_ms", ms(rootMean), "ms")
	rep.set("solver.residual_ms", ms(rootMean-layers), "ms")
	rep.set("layers.coverage", float64(layers)/float64(rootMean), "ratio")
	rep.set("sim.replay_ms", ms(tr.mean("sim.replay")), "ms")
	rep.set("optical.check_ms", ms(tr.mean("optical.check")), "ms")
	rep.set("go.alloc_mb_per_solve", float64(lt.alloc)/n/1e6, "MB")
	rep.set("go.gc_per_solve", float64(lt.gcs)/n, "count")
	rep.set("trace.overhead_frac", float64(median(lt.root))/float64(median(plain.solve))-1, "ratio")
	setAbsent(rep, wireLayers)
	return cfg.dumpSpans(tr, rep)
}

func meanOf(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if !math.IsNaN(x) {
			sum += x
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

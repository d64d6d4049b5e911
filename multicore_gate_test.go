package busytime_test

// Multicore performance gates, run by the CI `multicore` job under
// GOMAXPROCS=4 with BUSYTIME_MULTICORE_GATE=1. They are skipped everywhere
// else: wall-clock ratios are meaningless on a time-sliced single core, and
// correctness (bitwise parity, feasibility, cost envelope) is already pinned
// unconditionally by the ordinary test suite.

import (
	"context"
	"os"
	"testing"
	"time"

	"busytime"
	"busytime/internal/generator"
)

func requireMulticoreGate(t *testing.T) {
	t.Helper()
	if os.Getenv("BUSYTIME_MULTICORE_GATE") == "" {
		t.Skip("set BUSYTIME_MULTICORE_GATE=1 (CI multicore job) to run wall-clock gates")
	}
}

// TestMulticoreMergeGate is the Amdahl gate of the stitch merge: on the
// 16-cluster 100k-job workload the sequential merge phase must stay under 25%
// of the concurrent solve phase, or the serial fraction has crept back up and
// the parallel layer cannot scale past ~4 workers.
func TestMulticoreMergeGate(t *testing.T) {
	requireMulticoreGate(t)
	in := generator.Clustered(7, 16, 6250, 4, 5000, 40)
	s, err := busytime.New(busytime.WithWorkers(4), busytime.WithIntraWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Solve(ctx, in); err != nil { // warm arenas and runner
		t.Fatal(err)
	}
	// Best of 3 damps scheduler noise; the gate is structural (a second full
	// span-union pass would be ~100% of solve), not a tight timing assert.
	best := time.Duration(0)
	var bestD busytime.DecompStats
	for i := 0; i < 3; i++ {
		res, err := s.Solve(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		d := res.Decomp
		if !d.Decomposed() {
			t.Fatalf("run %d: layer declined: %+v", i, d)
		}
		if best == 0 || d.MergeTime < best {
			best, bestD = d.MergeTime, d
		}
	}
	if bestD.SolveTime <= 0 {
		t.Fatalf("degenerate solve time: %+v", bestD)
	}
	if ratio := float64(best) / float64(bestD.SolveTime); ratio > 0.25 {
		t.Fatalf("merge is %.0f%% of solve (merge=%v solve=%v); the stitch merge should stay ≤ 25%%",
			100*ratio, best, bestD.SolveTime)
	}
}

// TestMulticoreShardSpeedup is the sharding smoke: a dense single-component
// 100k-job instance must solve ≥ 1.8× faster with 4 time shards on 4 cores
// than sequentially. Correctness of the sharded schedule is pinned elsewhere;
// this gate only exists to catch the parallel path silently serializing.
func TestMulticoreShardSpeedup(t *testing.T) {
	requireMulticoreGate(t)
	in := generator.General(7, 100000, 4, 10000, 30)
	seq, err := busytime.New(busytime.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	shr, err := busytime.New(busytime.WithWorkers(4), busytime.WithTimeSharding(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	measure := func(s *busytime.Solver, wantShards bool) time.Duration {
		if _, err := s.Solve(ctx, in); err != nil { // warm
			t.Fatal(err)
		}
		best := time.Duration(0)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			res, err := s.Solve(ctx, in)
			el := time.Since(t0)
			if err != nil {
				t.Fatal(err)
			}
			if wantShards && res.Decomp.Shards < 2 {
				t.Fatalf("sharding did not engage: %+v", res.Decomp)
			}
			if best == 0 || el < best {
				best = el
			}
		}
		return best
	}
	tseq := measure(seq, false)
	tshard := measure(shr, true)
	if speedup := float64(tseq) / float64(tshard); speedup < 1.8 {
		t.Fatalf("4-shard speedup %.2fx (seq=%v sharded=%v); want ≥ 1.8x on 4 cores", speedup, tseq, tshard)
	}
}

// TestMulticoreManyComponents is the arena-reset gate of the decomposition
// layer: on the ~8.7k-component clustered workload (scenario "clustered",
// n = 1e5, ~12 jobs per component) the decomposed Solve must not be slower
// than the sequential one. Each component is solved on a recycled arena sized
// for the whole instance, so a reset that cost what the instance holds rather
// than what the previous component touched made the decomposed Solve ~2×
// slower than sequential here.
func TestMulticoreManyComponents(t *testing.T) {
	requireMulticoreGate(t)
	in := manyComponentsInstance(t)
	seq, err := busytime.New(busytime.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := busytime.New(busytime.WithWorkers(4), busytime.WithIntraWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	measure := func(s *busytime.Solver, wantDecomposed bool) time.Duration {
		if _, err := s.Solve(ctx, in); err != nil { // warm
			t.Fatal(err)
		}
		best := time.Duration(0)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			res, err := s.Solve(ctx, in)
			el := time.Since(t0)
			if err != nil {
				t.Fatal(err)
			}
			if wantDecomposed && !res.Decomp.Decomposed() {
				t.Fatalf("decomposition declined: %+v", res.Decomp)
			}
			if best == 0 || el < best {
				best = el
			}
		}
		return best
	}
	tseq := measure(seq, false)
	tdec := measure(dec, true)
	t.Logf("sequential %v, decomposed %v (%.2fx)", tseq, tdec, float64(tseq)/float64(tdec))
	if tdec > tseq {
		t.Fatalf("decomposed Solve %v slower than sequential %v on the many-components workload", tdec, tseq)
	}
}

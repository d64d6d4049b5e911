package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"busytime/internal/interval"
)

// randInstance builds a random demand-weighted instance for hint testing.
func randInstance(r *rand.Rand, n, g int) *Instance {
	ivs := make([]interval.Interval, n)
	for i := range ivs {
		s := r.Float64() * 50
		ivs[i] = interval.New(s, s+r.Float64()*15)
	}
	in := NewInstance(g, ivs...)
	for i := range in.Jobs {
		in.Jobs[i].Demand = 1 + r.Intn(g)
	}
	return in
}

// naiveCanAssign recomputes the capacity check from scratch, ignoring every
// hint: the demand-weighted closed max depth of the machine's jobs within
// the candidate's window.
func naiveCanAssign(s *Schedule, j, m int) bool {
	job := s.inst.Jobs[j]
	set := make(interval.Set, 0, 8)
	for _, jj := range s.machines[m].jobs {
		other := s.inst.Jobs[jj]
		if x, ok := other.Iv.Intersect(job.Iv); ok {
			for d := 0; d < other.Demand; d++ {
				set = append(set, x)
			}
		}
	}
	return set.MaxDepth()+job.Demand <= s.inst.G
}

// TestCanAssignHintsMatchNaive drives first-fit placement on random
// instances and checks every probe — hint-resolved or oracle-resolved —
// against the naive recomputation.
func TestCanAssignHintsMatchNaive(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := randInstance(r, 120, 1+r.Intn(5))
		s := NewSchedule(in)
		for j := range in.Jobs {
			placed := false
			for m := 0; m < s.NumMachines(); m++ {
				got := s.CanAssign(j, m)
				if want := naiveCanAssign(s, j, m); got != want {
					t.Fatalf("seed %d: CanAssign(%d, %d) = %v, naive says %v", seed, j, m, got, want)
				}
				if got && !placed {
					s.Assign(j, m)
					placed = true
				}
			}
			if !placed {
				s.AssignNew(j)
			}
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestTryAssignMatchesCanAssignPlusAssign runs the same first-fit placement
// through TryAssign and through CanAssign+Assign and requires identical
// machine assignments and costs.
func TestTryAssignMatchesCanAssignPlusAssign(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := randInstance(r, 150, 1+r.Intn(5))

		a := NewSchedule(in)
		for j := range in.Jobs {
			placed := false
			for m := 0; m < a.NumMachines() && !placed; m++ {
				placed = a.TryAssign(j, m)
			}
			if !placed {
				a.AssignNew(j)
			}
		}

		b := NewSchedule(in)
		for j := range in.Jobs {
			placed := false
			for m := 0; m < b.NumMachines() && !placed; m++ {
				if b.CanAssign(j, m) {
					b.Assign(j, m)
					placed = true
				}
			}
			if !placed {
				b.AssignNew(j)
			}
		}

		for j := range in.Jobs {
			if a.MachineOf(j) != b.MachineOf(j) {
				t.Fatalf("seed %d: job %d on machine %d via TryAssign, %d via CanAssign+Assign",
					seed, j, a.MachineOf(j), b.MachineOf(j))
			}
		}
		if err := a.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if a.Cost() != b.Cost() {
			t.Fatalf("seed %d: costs differ: %v vs %v", seed, a.Cost(), b.Cost())
		}
	}
}

// TestScratchReuse runs a sequence of instances through one Scratch and
// checks each schedule agrees with a fresh one; it also checks the previous
// schedule is reclaimed rather than leaked.
func TestScratchReuse(t *testing.T) {
	sc := new(Scratch)
	r := rand.New(rand.NewSource(42))
	for round := 0; round < 12; round++ {
		in := randInstance(r, 40+r.Intn(120), 1+r.Intn(4))
		s := sc.NewSchedule(in)
		fresh := NewSchedule(in)
		for j := range in.Jobs {
			placed := false
			for m := 0; m < s.NumMachines() && !placed; m++ {
				placed = s.TryAssign(j, m)
			}
			if !placed {
				s.AssignNew(j)
			}
			placedF := false
			for m := 0; m < fresh.NumMachines() && !placedF; m++ {
				placedF = fresh.TryAssign(j, m)
			}
			if !placedF {
				fresh.AssignNew(j)
			}
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("round %d: scratch schedule infeasible: %v", round, err)
		}
		if s.NumMachines() != fresh.NumMachines() || s.Cost() != fresh.Cost() {
			t.Fatalf("round %d: scratch (%d machines, cost %v) != fresh (%d machines, cost %v)",
				round, s.NumMachines(), s.Cost(), fresh.NumMachines(), fresh.Cost())
		}
	}
}

// TestFirstFitAssignZeroAllocSteadyState is the arena acceptance gate: after
// one warm-up pass, re-scheduling an instance through a recycled Scratch —
// NewSchedule, EnableMachineIndex, and every FirstFitAssign — performs zero
// allocations. This covers the whole indexed pipeline: assignment slice,
// machine records, segment tree, saturation bitmap, load profiles, shard
// directories, shard-pool chunks, sweep scratch and span unions.
func TestFirstFitAssignZeroAllocSteadyState(t *testing.T) {
	in := denseTestInstance(3000, 4, 1500, 25)
	sc := new(Scratch)
	run := func() {
		s := sc.NewSchedule(in)
		s.EnableMachineIndex()
		for j := range in.Jobs {
			s.FirstFitAssign(j)
		}
	}
	run() // warm-up sizes the arena for the instance
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Fatalf("warm indexed FirstFit allocated %v times per run; want 0", allocs)
	}
	stats := sc.Stats()
	before := stats.SetupAllocs
	run()
	if after := sc.Stats().SetupAllocs; after != before {
		t.Fatalf("warm run performed %d arena setup allocations; want 0", after-before)
	}
}

// TestScratchZeroAllocAcrossShrinkingInstances checks the arena's sizing
// discipline across instance changes: after warming on the largest instance
// of a set, scheduling any smaller instance allocates nothing (backing
// arrays only ever grow). The no-index leg runs the same loop without
// EnableMachineIndex, pinning that the recycled shard oracle alone stops
// allocating too.
func TestScratchZeroAllocAcrossShrinkingInstances(t *testing.T) {
	big := denseTestInstance(4000, 3, 2000, 20)
	small := denseTestInstance(500, 5, 120, 8)
	tiny := denseTestInstance(40, 2, 30, 6)
	for _, indexed := range []bool{true, false} {
		sc := new(Scratch)
		run := func(in *Instance) {
			s := sc.NewSchedule(in)
			if indexed {
				s.EnableMachineIndex()
			}
			for j := range in.Jobs {
				s.FirstFitAssign(j)
			}
		}
		for _, in := range []*Instance{big, small, tiny} {
			run(in) // warm-up (also builds each instance's cached axis)
		}
		run(big)
		for _, in := range []*Instance{small, tiny, big} {
			if allocs := testing.AllocsPerRun(3, func() { run(in) }); allocs != 0 {
				t.Fatalf("indexed=%v n=%d after warm-up on larger instance: %v allocs per run; want 0", indexed, in.N(), allocs)
			}
		}
	}
}

// TestScratchStatsCounts pins the telemetry the engine reports: a cold
// scratch performs setup allocations, an identical second run performs none.
func TestScratchStatsCounts(t *testing.T) {
	in := denseTestInstance(800, 4, 400, 15)
	sc := new(Scratch)
	if got := sc.Stats(); got.Schedules != 0 || got.SetupAllocs != 0 {
		t.Fatalf("fresh scratch reports %+v", got)
	}
	run := func() {
		s := sc.NewSchedule(in)
		s.EnableMachineIndex()
		for j := range in.Jobs {
			s.FirstFitAssign(j)
		}
	}
	run()
	first := sc.Stats()
	if first.Schedules != 1 || first.SetupAllocs == 0 {
		t.Fatalf("cold run reports %+v; want 1 schedule and nonzero setup allocs", first)
	}
	run()
	second := sc.Stats()
	if second.Schedules != 2 {
		t.Fatalf("Schedules = %d, want 2", second.Schedules)
	}
	if second.SetupAllocs != first.SetupAllocs {
		t.Fatalf("warm identical run performed %d setup allocs; want 0", second.SetupAllocs-first.SetupAllocs)
	}
}

// TestScratchInvalidatesPreviousSchedule documents the reuse contract: the
// schedule handed out before the latest NewSchedule call is dead.
func TestScratchInvalidatesPreviousSchedule(t *testing.T) {
	sc := new(Scratch)
	in := NewInstance(2, interval.New(0, 1))
	old := sc.NewSchedule(in)
	old.AssignNew(0)
	if got := old.NumMachines(); got != 1 {
		t.Fatalf("NumMachines = %d, want 1", got)
	}
	_ = sc.NewSchedule(in)
	if got := old.NumMachines(); got != 0 {
		t.Errorf("reclaimed schedule still reports %d machines; want 0 (state stripped)", got)
	}
}

// requireArenaClean asserts the invariant every NewSchedule establishes: the
// scratch's retained backing arrays are clean up to capacity — assignment
// slots Unassigned, and the saturation bitmap, every machine record's
// profile slab and every shard directory zero.
func requireArenaClean(t *testing.T, sc *Scratch, step string) {
	t.Helper()
	for j, m := range sc.assign[:cap(sc.assign)] {
		if m != Unassigned {
			t.Fatalf("%s: assign[%d] = %d after NewSchedule; want Unassigned", step, j, m)
		}
	}
	for i, w := range sc.index.mask[:cap(sc.index.mask)] {
		if w != 0 {
			t.Fatalf("%s: bitmap word %d = %#x after NewSchedule; want 0", step, i, w)
		}
	}
	for m, st := range sc.sched.machines[:cap(sc.sched.machines)] {
		// Profile slabs dominate the arena; count zeros with the vectorized
		// byte count and locate the offender only on failure.
		if p := st.prof[:cap(st.prof)]; bytes.Count(p, []byte{0}) != len(p) {
			b := slices.IndexFunc(p, func(v uint8) bool { return v != 0 })
			t.Fatalf("%s: machine record %d profile byte %d = %d after NewSchedule; want 0", step, m, b, p[b])
		}
		for k, h := range st.shards.heads[:cap(st.shards.heads)] {
			if h != 0 {
				t.Fatalf("%s: machine record %d shard head %d = %d after NewSchedule; want 0", step, m, k, h)
			}
		}
	}
}

// requireSameSchedule asserts a recycled schedule equals a fresh one bitwise:
// the same machines with the same job lists, and the same Cost bits.
func requireSameSchedule(t *testing.T, got, want *Schedule, step string) {
	t.Helper()
	if got.NumMachines() != want.NumMachines() {
		t.Fatalf("%s: recycled schedule has %d machines, fresh %d", step, got.NumMachines(), want.NumMachines())
	}
	for m := 0; m < got.NumMachines(); m++ {
		if !slices.Equal(got.MachineJobs(m), want.MachineJobs(m)) {
			t.Fatalf("%s: machine %d jobs %v recycled, %v fresh", step, m, got.MachineJobs(m), want.MachineJobs(m))
		}
	}
	if math.Float64bits(got.Cost()) != math.Float64bits(want.Cost()) {
		t.Fatalf("%s: recycled cost %v, fresh %v", step, got.Cost(), want.Cost())
	}
}

// TestScratchUndoKeepsArenaClean pushes one Scratch through every kind of
// schedule it serves and checks, after each NewSchedule, that the undo pass
// left the arena clean up to capacity, and that each recycled run equals a
// fresh one bitwise. The sequence: a parent instance opening machines past
// its profile prefix and more than 512 bitmap machines; thousands of tiny
// component-style runs on that parent; an instance whose axis is decimated
// past maxTimeBuckets; a point-only instance (degenerate axis); a sealed
// Assembly; a no-index schedule; and the parent again.
func TestScratchUndoKeepsArenaClean(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	parent := denseTestInstance(5000, 3, 200, 60)
	for i := range parent.Jobs {
		parent.Jobs[i].Demand = 1 + r.Intn(3)
	}
	sc := new(Scratch)
	// run places order on a schedule drawn from sc and on a fresh one and
	// compares them; the arena must be clean right after NewSchedule.
	run := func(step string, in *Instance, indexed bool, order []int32, place func(Placer, int)) *Schedule {
		s := sc.NewSchedule(in)
		requireArenaClean(t, sc, step)
		fresh := NewSchedule(in)
		for _, x := range []*Schedule{s, fresh} {
			if indexed {
				x.EnableMachineIndex()
			}
			k := x.Placer()
			for _, j := range order {
				place(k, int(j))
			}
		}
		requireSameSchedule(t, s, fresh, step)
		return s
	}
	lowest := func(k Placer, j int) { k.LowestFit(j) }
	best := func(k Placer, j int) { k.BestFit(j) }

	s := run("parent", parent, true, parent.LengthOrder(), lowest)
	if s.NumMachines() <= sc.index.profileCap || 64*sc.index.words <= minBitmapMachines {
		t.Fatalf("parent run opened %d machines over %d bitmap words; want > %d machines and > %d in the bitmap",
			s.NumMachines(), sc.index.words, sc.index.profileCap, minBitmapMachines)
	}
	if !slices.ContainsFunc(sc.index.mask, func(w uint64) bool { return w != 0 }) {
		t.Fatal("parent run marked no saturated bucket; the bitmap leg is vacuous")
	}
	run("parent bestfit", parent, true, parent.LengthOrder(), best)

	starts := parent.StartOrder()
	for i := 0; i < 2000; i++ {
		lo := r.Intn(len(starts))
		hi := min(len(starts), lo+1+r.Intn(16))
		place := lowest
		if i%2 == 1 {
			place = best
		}
		run("tiny component", parent, true, starts[lo:hi], place)
	}

	wide := denseTestInstance(40000, 4, 20000, 30)
	// 80000 distinct endpoints exceed maxTimeBuckets, so the axis is
	// decimated to every other endpoint.
	if ia := wide.timeAxis(); ia.nb > maxTimeBuckets || ia.nb >= 2*wide.N()-1 {
		t.Fatalf("wide instance axis has %d buckets; want it decimated below %d", ia.nb, maxTimeBuckets)
	}
	run("decimated axis", wide, true, wide.StartOrder(), lowest)

	points := make([]interval.Interval, 12)
	for i := range points {
		points[i] = interval.New(5, 5)
	}
	point := NewInstance(2, points...)
	if point.timeAxis().nb != 0 {
		t.Fatal("point-only instance has a non-degenerate axis")
	}
	run("point-only", point, true, point.StartOrder(), lowest)
	run("parent after point-only", parent, true, parent.LengthOrder(), lowest)

	// A sealed assembly replaying a fresh run's machines; odd machines go
	// through PutPlaced, which leaves the busy hull stale.
	ref := firstFitAll(parent, true)
	assemble := func(a Assembly) *Schedule {
		for m := 0; m < ref.NumMachines(); m++ {
			for _, j := range ref.MachineJobs(m) {
				if m%2 == 0 {
					a.Put(j, m)
				} else {
					a.PutPlaced(j, m)
				}
			}
		}
		return a.Finish()
	}
	asm := assemble(BeginAssembly(parent, sc, ref.NumMachines()))
	requireSameSchedule(t, asm, assemble(BeginAssembly(parent, nil, ref.NumMachines())), "assembly")

	run("no index", parent, false, parent.LengthOrder(), lowest)
	run("parent again", parent, true, parent.LengthOrder(), lowest)
	sc.NewSchedule(point)
	requireArenaClean(t, sc, "final")
}

// TestEnableMachineIndexRequiresEmptySchedule pins that the index can only be
// attached before the first machine opens: there is no retroactive indexing.
func TestEnableMachineIndexRequiresEmptySchedule(t *testing.T) {
	s := NewSchedule(NewInstance(2, interval.New(0, 1)))
	s.AssignNew(0)
	defer func() {
		if recover() == nil {
			t.Fatal("EnableMachineIndex on a schedule with machines did not panic")
		}
	}()
	s.EnableMachineIndex()
}

package core

import (
	"math"
	"testing"

	"busytime/internal/interval"
)

// TestFirstTrivialFindsLowestGuaranteedMachine drives the segment tree
// directly: the reported machine must actually satisfy one of the trivial
// acceptance conditions, and no lower-indexed machine may satisfy any.
func TestFirstTrivialFindsLowestGuaranteedMachine(t *testing.T) {
	in := denseTestInstance(200, 3, 100, 10)
	ix := new(machindex)
	ix.reset(in.timeAxis())
	type mstate struct {
		hull interval.Interval
		peak int
		open bool
	}
	var ms []mstate
	state := uint64(99)
	next := func(n int) int {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		return int(z % uint64(n))
	}
	for step := 0; step < 400; step++ {
		switch {
		case len(ms) == 0 || next(5) == 0:
			ix.addMachine()
			ms = append(ms, mstate{open: true})
		default:
			m := next(len(ms))
			s := float64(next(100))
			hull := interval.Interval{Start: s, End: s + float64(next(20))}
			peak := next(4)
			ix.update(m, hull, peak)
			ms[m] = mstate{hull: hull, peak: peak, open: false}
		}
		ws := float64(next(110)) - 5
		w := interval.Interval{Start: ws, End: ws + float64(next(15))}
		d := 1 + next(3)
		slack := int32(in.G - d)
		got := ix.firstTrivial(w, slack)
		want := -1
		for m, st := range ms {
			trivial := st.open || // empty machine: peak 0 ≤ slack
				st.hull.End < w.Start || st.hull.Start > w.End ||
				st.peak <= int(slack)
			if trivial {
				want = m
				break
			}
		}
		if got != want {
			t.Fatalf("step %d: firstTrivial=%d, brute force=%d (w=%v slack=%d)", step, got, want, w, slack)
		}
	}
}

// TestShardGeometryCoversJobs pins the bucket→shard mapping every indexed
// machine relies on: a job's shard range covers its window, and every shard
// in the range genuinely touches the window, so sharded sweeps see exactly
// the jobs that can contribute load.
func TestShardGeometryCoversJobs(t *testing.T) {
	for _, n := range []int{5, 60, 600, 6000} {
		in := denseTestInstance(n, 3, float64(n), 12)
		ia := in.timeAxis()
		if ia.nb == 0 {
			t.Fatalf("n=%d: degenerate axis", n)
		}
		if ia.nshards != (ia.nb-1)>>ia.shardShift+1 {
			t.Fatalf("n=%d: nshards %d inconsistent with nb %d >> %d", n, ia.nshards, ia.nb, ia.shardShift)
		}
		extra := 0
		for _, job := range in.Jobs {
			lo, hi := ia.ax.OverlapRange(job.Iv)
			if lo > hi {
				t.Fatalf("n=%d: job %v got empty bucket range", n, job.Iv)
			}
			slo, shi := ia.shardRange(lo, hi)
			extra += shi - slo
			if ia.shardStart(slo) > job.Iv.Start || ia.shardEnd(shi) < job.Iv.End {
				t.Fatalf("n=%d: job %v not covered by shards [%d,%d] = [%v,%v]",
					n, job.Iv, slo, shi, ia.shardStart(slo), ia.shardEnd(shi))
			}
			for k := slo; k <= shi; k++ {
				tile := interval.Interval{Start: ia.shardStart(k), End: ia.shardEnd(k)}
				if !tile.Overlaps(job.Iv) {
					t.Fatalf("n=%d: job %v spans disjoint shard %d %v", n, job.Iv, k, tile)
				}
			}
		}
		if extra > in.N() {
			t.Fatalf("n=%d: %d extra shard copies for %d jobs; duplication bound violated", n, extra, in.N())
		}
	}
}

// TestMachindexWordGrowth exercises the bitmap re-layout past 64 machines,
// including the in-place widening of a recycled mask.
func TestMachindexWordGrowth(t *testing.T) {
	in := denseTestInstance(64, 2, 64, 4)
	ix := new(machindex)
	for round := 0; round < 2; round++ {
		// Round 1 re-runs on the warm index: the widening must then happen
		// in place, preserving bits without fresh backing arrays.
		ix.reset(in.timeAxis())
		if ix.nb == 0 {
			t.Skip("degenerate axis")
		}
		allocsBefore := ix.allocs
		for m := 0; m < 130; m++ {
			ix.addMachine()
			ix.markBucket(m, m%ix.nb)
		}
		for m := 0; m < 130; m++ {
			b := m % ix.nb
			if ix.mask[b*ix.words+m/64]&(1<<(m%64)) == 0 {
				t.Fatalf("round %d: bit for machine %d bucket %d lost across word growth", round, m, b)
			}
		}
		if round == 1 && ix.allocs != allocsBefore {
			t.Fatalf("warm re-run allocated %d backing arrays; want 0", ix.allocs-allocsBefore)
		}
	}
}

// shardHarness wires a loadShards directory to a pool and an axis the way a
// schedule does, for driving the oracle directly in tests.
type shardHarness struct {
	ia   *instanceAxis
	pool shardPool
	ls   loadShards
}

func newShardHarness(in *Instance) *shardHarness {
	h := &shardHarness{ia: in.timeAxis()}
	h.ls.init(h.ia)
	return h
}

func (h *shardHarness) add(iv interval.Interval, demand int) {
	lo, hi := h.ia.ax.OverlapRange(iv)
	slo, shi := h.ia.shardRange(lo, hi)
	h.ls.add(&h.pool, iv, demand, slo, shi)
}

func (h *shardHarness) maxDepthRun(w interval.Interval, thresh int) (int, float64, interval.Interval, bool) {
	lo, hi := h.ia.ax.OverlapRange(w)
	slo, shi := h.ia.shardRange(lo, hi)
	return h.ls.maxDepthRun(&h.pool, h.ia, w, thresh, slo, shi)
}

// TestLoadShardsMatchesBrute compares the sharded capacity oracle against a
// brute-force depth computation. The insertion count runs far past the old
// doubling-growth threshold (shardJobTarget items per shard) to pin the
// regression the up-front sizing replaced: the fixed directory must stay
// exact at any occupancy, with no redistribution path left to get wrong.
func TestLoadShardsMatchesBrute(t *testing.T) {
	state := uint64(3)
	next := func() float64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return float64((z^(z>>31))>>11) / (1 << 53)
	}
	type wjob struct {
		iv interval.Interval
		d  int
	}
	// Pre-generate the workload so the instance axis exists up front, the
	// way EnableMachineIndex sees a complete instance.
	jobs := make([]wjob, 1200)
	ivs := make([]interval.Interval, len(jobs))
	for i := range jobs {
		s := next() * 100
		iv := interval.Interval{Start: s, End: s + next()*12}
		jobs[i] = wjob{iv, 1 + int(next()*3)}
		ivs[i] = iv
	}
	h := newShardHarness(NewInstance(4, ivs...))
	if h.ia.nshards < 2 {
		t.Fatalf("only %d shard(s); multi-shard sweeps untested", h.ia.nshards)
	}
	if old := shardJobTarget; len(jobs) <= old {
		t.Fatalf("workload %d does not exceed the old growth threshold %d", len(jobs), old)
	}
	var added []wjob
	brute := func(w interval.Interval) int {
		// Max closed depth within w: evaluate at every clipped endpoint.
		best := 0
		for _, cand := range added {
			for _, p := range []float64{cand.iv.Start, cand.iv.End, w.Start, w.End} {
				if p < w.Start || p > w.End {
					continue
				}
				depth := 0
				for _, o := range added {
					if o.iv.Contains(p) {
						depth += o.d
					}
				}
				if depth > best {
					best = depth
				}
			}
		}
		return best
	}
	for step, j := range jobs {
		h.add(j.iv, j.d)
		added = append(added, j)
		qs := next() * 100
		w := interval.Interval{Start: qs, End: qs + next()*12}
		want := brute(w)
		got, at, run, ok := h.maxDepthRun(w, 3)
		if got != want {
			t.Fatalf("step %d: depth %d, brute %d (w=%v, shards=%d)", step, got, want, w, h.ia.nshards)
		}
		if ok != (want >= 3) {
			t.Fatalf("step %d: ok=%v with depth %d", step, ok, want)
		}
		if want > 0 && !w.Contains(at) {
			t.Fatalf("step %d: witness %v outside %v", step, at, w)
		}
		if ok {
			if !w.ContainsInterval(run) {
				t.Fatalf("step %d: run %v outside %v", step, run, w)
			}
			for i := 0; i <= 8; i++ {
				p := run.Start + (run.End-run.Start)*float64(i)/8
				depth := 0
				for _, o := range added {
					if o.iv.Contains(p) {
						depth += o.d
					}
				}
				if depth < 3 {
					t.Fatalf("step %d: run %v has depth %d < 3 at %v", step, run, depth, p)
				}
			}
		}
	}
}

// TestLoadShardsMatchesBruteForce pins the exact capacity oracle to a
// brute-force closed-depth count over the placed intervals, probing every
// window at two thresholds. Beyond the depth it checks the whole query
// contract the kernel's hints rely on: ok is exactly depth ≥ thresh, the
// witness lies in the window and attains the reported depth, and a reported
// run lies in the window and is saturated at both ends.
func TestLoadShardsMatchesBruteForce(t *testing.T) {
	state := uint64(21)
	next := func() float64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return float64((z^(z>>31))>>11) / (1 << 53)
	}
	ivs := make([]interval.Interval, 800)
	for i := range ivs {
		s := next() * 60
		ivs[i] = interval.Interval{Start: s, End: s + next()*9}
	}
	h := newShardHarness(NewInstance(4, ivs...))
	if h.ia.nshards < 2 {
		t.Fatalf("only %d shard(s); multi-shard sweeps untested", h.ia.nshards)
	}
	var placed []interval.Interval
	depthAt := func(p float64) int {
		d := 0
		for _, iv := range placed {
			if iv.Contains(p) {
				d++
			}
		}
		return d
	}
	// The maximum closed depth within w is attained at w.Start or at a
	// start point inside w.
	brute := func(w interval.Interval) int {
		best := depthAt(w.Start)
		for _, iv := range placed {
			if w.Contains(iv.Start) {
				best = max(best, depthAt(iv.Start))
			}
		}
		return best
	}
	for step, iv := range ivs {
		h.add(iv, 1)
		placed = append(placed, iv)
		qs := next() * 60
		w := interval.Interval{Start: qs, End: qs + next()*9}
		want := brute(w)
		for _, thresh := range []int{2, 4} {
			depth, at, run, ok := h.maxDepthRun(w, thresh)
			if depth != want {
				t.Fatalf("step %d: depth %d, brute force %d (w=%v)", step, depth, want, w)
			}
			if ok != (depth >= thresh) {
				t.Fatalf("step %d: ok=%v at depth %d thresh %d", step, ok, depth, thresh)
			}
			if depth > 0 {
				if !w.Contains(at) {
					t.Fatalf("step %d: witness %v outside %v", step, at, w)
				}
				if d := depthAt(at); d != depth {
					t.Fatalf("step %d: witness %v has depth %d, reported %d", step, at, d, depth)
				}
			}
			if ok {
				if !w.ContainsInterval(run) {
					t.Fatalf("step %d: run %v outside %v", step, run, w)
				}
				if a, b := depthAt(run.Start), depthAt(run.End); a < thresh || b < thresh {
					t.Fatalf("step %d: run %v has end depths %d, %d < %d", step, run, a, b, thresh)
				}
			}
		}
	}
}

// TestMachindexCapsFollowAxisBudget pins the prefix geometry: axes of 2¹⁵
// buckets or more keep the 512-machine bitmap and 128-machine profile
// floors, and a shorter axis widens each prefix only within its memory
// budget (2²⁴ bitmap bits, 2²³ profile bytes).
func TestMachindexCapsFollowAxisBudget(t *testing.T) {
	for _, c := range []struct{ nb, bitmap, profile int }{
		{0, 512, 128},
		{1, 1 << 24, 1 << 22},
		{62, 270592, 67650},
		{3000, 5568, 1398},
		{1<<15 - 1, 512, 128},
		{1 << 15, 512, 128},
		{49813, 512, 128},
		{1 << 16, 512, 128},
	} {
		ix := new(machindex)
		ix.reset(&instanceAxis{nb: c.nb})
		if ix.bitmapCap != c.bitmap || ix.profileCap != c.profile {
			t.Fatalf("nb=%d: caps %d bitmap / %d profiled machines; want %d / %d",
				c.nb, ix.bitmapCap, ix.profileCap, c.bitmap, c.profile)
		}
		if ix.bitmapCap%64 != 0 {
			t.Fatalf("nb=%d: bitmap cap %d is not a whole number of words", c.nb, ix.bitmapCap)
		}
		if ix.bitmapCap > minBitmapMachines && ix.bitmapCap*c.nb > 1<<24 {
			t.Fatalf("nb=%d: bitmap of %d machines holds %d bits; budget 2^24", c.nb, ix.bitmapCap, ix.bitmapCap*c.nb)
		}
		if ix.profileCap > minProfileMachines && 2*ix.profileCap*c.nb > 1<<23 {
			t.Fatalf("nb=%d: profiles of %d machines hold %d bytes; budget 2^23", c.nb, ix.profileCap, 2*ix.profileCap*c.nb)
		}
	}
}

// TestIndexManyMachinesPastPrefixCaps opens more than 512 machines on two
// axes and checks indexed FirstFit and BestFit against the plain scans
// machine for machine: a short axis whose prefixes cover every machine, so
// the bitmap and the profiles work past the 512/128 floors, and a long axis
// (≥ 2¹⁵ buckets) whose machines run past both prefixes.
func TestIndexManyMachinesPastPrefixCaps(t *testing.T) {
	state := uint64(8)
	next := func() float64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return float64((z^(z>>31))>>11) / (1 << 53)
	}
	// clique returns 1500 jobs through the common point 10 — with g=2, 750
	// machines. Integer endpoints keep the axis to a handful of buckets.
	clique := func(integer bool) []interval.Interval {
		ivs := make([]interval.Interval, 1500)
		for i := range ivs {
			a, b := 1+next()*5, 1+next()*5
			if integer {
				a, b = math.Floor(a), math.Floor(b)
			}
			ivs[i] = interval.New(10-a, 10+b)
		}
		return ivs
	}
	// The long axis gets 17000 short disjoint jobs ahead of the clique:
	// their endpoints push the axis past 2¹⁵ buckets, and they all land on
	// machine 0.
	var long []interval.Interval
	for i := 0; i < 17000; i++ {
		long = append(long, interval.New(100+float64(i), 100.5+float64(i)))
	}
	long = append(long, clique(false)...)
	legs := []struct {
		name string
		in   *Instance
		past bool // machines run past both prefixes
	}{
		{"short axis", NewInstance(2, clique(true)...), false},
		{"long axis", NewInstance(2, long...), true},
	}
	for _, leg := range legs {
		in := leg.in
		for _, best := range []bool{false, true} {
			label := leg.name + " firstfit"
			if best {
				label = leg.name + " bestfit"
			}
			indexed := NewSchedule(in)
			indexed.EnableMachineIndex()
			plain := NewSchedule(in)
			for j := range in.Jobs {
				if best {
					indexed.Placer().BestFit(j)
					naiveBestFit(plain, j)
				} else {
					indexed.FirstFitAssign(j)
					plain.FirstFitAssign(j)
				}
			}
			ix, nm := indexed.index, indexed.NumMachines()
			if nm <= minBitmapMachines {
				t.Fatalf("%s: opened only %d machines; the bitmap floor is untested", label, nm)
			}
			if leg.past {
				if ix.nb < 1<<15 || nm <= ix.bitmapCap || len(indexed.machines[nm-1].floor) != 0 {
					t.Fatalf("%s: %d buckets, %d machines, bitmap cap %d; want the last machine past both prefixes",
						label, ix.nb, nm, ix.bitmapCap)
				}
			} else {
				if nm > ix.bitmapCap || nm > ix.profileCap || len(indexed.machines[nm-1].floor) == 0 {
					t.Fatalf("%s: %d buckets, %d machines, caps %d/%d; want every machine in both prefixes",
						label, ix.nb, nm, ix.bitmapCap, ix.profileCap)
				}
				if !bitsPast(ix, minBitmapMachines) {
					t.Fatalf("%s: no bitmap bit set for a machine past %d; the widened prefix is vacuous", label, minBitmapMachines)
				}
			}
			if nm != plain.NumMachines() {
				t.Fatalf("%s: indexed %d machines, plain %d", label, nm, plain.NumMachines())
			}
			for j := range in.Jobs {
				if indexed.MachineOf(j) != plain.MachineOf(j) {
					t.Fatalf("%s: job %d: indexed machine %d, plain %d", label, j, indexed.MachineOf(j), plain.MachineOf(j))
				}
			}
			if math.Float64bits(indexed.Cost()) != math.Float64bits(plain.Cost()) {
				t.Fatalf("%s: cost %v vs %v", label, indexed.Cost(), plain.Cost())
			}
			if err := indexed.Verify(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	}
}

// bitsPast reports whether the bitmap holds a bit for some machine ≥ m.
func bitsPast(ix *machindex, m int) bool {
	for b := 0; b < ix.nb; b++ {
		row := ix.mask[b*ix.words : (b+1)*ix.words]
		for w := m / 64; w < len(row); w++ {
			if row[w]>>(uint(max(m-64*w, 0))) != 0 {
				return true
			}
		}
	}
	return false
}

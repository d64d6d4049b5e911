package core

// Scratch is the schedule-state arena: it owns and recycles everything a
// schedule allocates — the schedule record itself, the assignment slice, the
// flat machine-state array (with each machine's span union, load profile and
// shard directory), the machine-selection index (segment tree and
// saturation bitmap), and the chunked shard pool every machine's
// time-sharded job lists draw from. A worker that schedules a stream of
// instances through one Scratch stops allocating once warm.
//
// Reset discipline: the retained backing arrays are kept clean up to their
// capacity — assignment slots read Unassigned, shard directories, load
// profiles and bitmap rows read zero — so setting up a schedule is a
// truncation, never a clear. NewSchedule restores the invariant with one
// undo pass over the previous schedule that erases only what it wrote
// (see undo), so a reset costs what the last schedule touched, not what the
// instance holds: a 12-job component of a 100k-job instance resets in time
// proportional to its 12 jobs.
//
// Contract: NewSchedule reclaims everything handed out by the previous
// NewSchedule call on the same Scratch, so at most one schedule per Scratch
// is live at a time (the returned pointer is the same recycled record).
// Callers must extract whatever they need from a schedule (cost, machine
// count, assignment, …) before requesting the next one. A Scratch must not
// be shared between goroutines.
type Scratch struct {
	sched  Schedule // the single live schedule, recycled in place
	assign []int
	// pool is the recycled shard arena of every schedule drawn from the
	// scratch; index is the machine-selection arena handed to schedules that
	// call EnableMachineIndex. Both are reconfigured per instance.
	index machindex
	pool  shardPool
	// allocs counts backing-array growth performed on behalf of schedules
	// (machine records, assignment slice, profiles, shard directories);
	// index and pool keep their own counters. See Stats.
	allocs    int
	schedules int
	// pendingLog is a one-shot span-delta log armed by ArmSpanLog: the next
	// NewSchedule attaches it and clears the arming, so exactly one run's
	// placements land in the caller-provided buffer.
	pendingLog []float64
	armed      bool
}

// ScratchStats summarizes the arena traffic of a Scratch.
type ScratchStats struct {
	// Schedules is the number of schedules the scratch has served.
	Schedules int
	// SetupAllocs counts the backing-array allocations the arena performed
	// while setting up schedule state: machine records, the assignment
	// slice, segment-tree and bitmap arrays, load-profile slabs, shard
	// directories and shard-pool chunks. A warm scratch re-serving an
	// instance shape it has seen performs none.
	SetupAllocs int
}

// Stats returns the arena counters accumulated since the scratch was
// created. Engine workers snapshot it around each run to report per-run
// reuse.
func (sc *Scratch) Stats() ScratchStats {
	return ScratchStats{
		Schedules:   sc.schedules,
		SetupAllocs: sc.allocs + sc.index.allocs + sc.pool.allocs,
	}
}

// NewScheduleFrom returns an empty schedule for inst drawn from sc, or a
// fresh one when sc is nil. It is the single construction point for
// algorithms whose Run and RunScratch entry points share one body.
func NewScheduleFrom(inst *Instance, sc *Scratch) *Schedule {
	if sc != nil {
		return sc.NewSchedule(inst)
	}
	return NewSchedule(inst)
}

// NewSchedule returns an empty schedule for inst backed by this scratch,
// invalidating (and recycling in place) the schedule returned by the
// previous call.
func (sc *Scratch) NewSchedule(inst *Instance) *Schedule {
	s := &sc.sched
	sc.undo()
	machines := s.machines[:0]
	n := inst.N()
	if cap(sc.assign) < n {
		sc.allocs++
		sc.assign = make([]int, n)
		for i := range sc.assign {
			sc.assign[i] = Unassigned
		}
	}
	assign := sc.assign[:n]
	sc.pool.reset()
	*s = Schedule{inst: inst, assign: assign, machines: machines, scratch: sc, cursor: Unassigned, ia: inst.timeAxis(), pool: &sc.pool}
	if sc.armed {
		s.spanLog, s.logSpans = sc.pendingLog, true
		sc.pendingLog, sc.armed = nil, false
	}
	sc.schedules++
	return s
}

// undo erases every write the live schedule made into the retained backing
// arrays, restoring the clean-to-capacity invariant NewSchedule relies on.
// Each write is located from state the schedule keeps anyway, so placements
// pay nothing for it:
//   - every assign[j] write goes with an append to the machine's job list;
//   - every shard-head, profile and bitmap write of a machine falls inside
//     the bucket range of the machine's busy hull on the schedule's own axis
//     (s.ia, still attached): insert grows the hull before its first arena
//     write, and a saturated run is covered by the machine's jobs.
//
// Machines without jobs wrote nothing. The pass covers sealed assemblies
// too: their machines wrote no capacity structure, and a hull the assembly
// left stale only makes the pass clear a few clean entries.
func (sc *Scratch) undo() {
	s := &sc.sched
	ix := s.index
	// The 64 machines of a bitmap word are consecutive, so the word is
	// cleared once over the union of their hull ranges instead of once per
	// machine: the bitmap costs at most its own size, not machines × rows.
	word, wlo, whi := -1, 0, -1
	for m := range s.machines {
		st := &s.machines[m]
		if len(st.jobs) == 0 {
			continue
		}
		for _, j := range st.jobs {
			s.assign[j] = Unassigned
		}
		lo, hi := s.ia.ax.OverlapRange(st.hull)
		slo, shi := s.ia.shardRange(lo, hi)
		clear(st.shards.heads[slo : shi+1])
		if lo > hi {
			continue
		}
		if len(st.floor) > 0 {
			clear(st.floor[lo : hi+1])
			clear(st.ceil[lo : hi+1])
		}
		if ix == nil {
			continue
		}
		if w := m / 64; w != word {
			ix.clearRows(word, wlo, whi)
			word, wlo, whi = w, lo, hi
		} else {
			wlo, whi = min(wlo, lo), max(whi, hi)
		}
	}
	if ix != nil {
		ix.clearRows(word, wlo, whi)
	}
}

// ArmSpanLog arms a one-shot span-delta log: the next schedule drawn from
// this scratch records every placement's span-union delta by appending to
// buf (normally length 0 with capacity for the expected placement count, so
// a well-behaved run stays inside the caller's backing array). Read the
// result back with Schedule.SpanLog. The decomposition layer arms a
// per-component segment before each component solve, giving the stitch merge
// the exact floating-point deltas to replay in global order.
func (sc *Scratch) ArmSpanLog(buf []float64) {
	sc.pendingLog, sc.armed = buf, true
}

// LiveSchedule returns the schedule most recently drawn from this scratch
// (nil before the first NewSchedule). Per the arena contract at most one
// schedule per Scratch is live; this accessor lets a coordinator capture
// worker results — span pieces, machine counts, the span log — after worker
// goroutines finish without threading the pointer through their results.
func (sc *Scratch) LiveSchedule() *Schedule {
	if sc.schedules == 0 {
		return nil
	}
	return &sc.sched
}

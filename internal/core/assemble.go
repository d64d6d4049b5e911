package core

import (
	"fmt"

	"busytime/internal/interval"
)

// Assembly builds a schedule whose placements are already known — the merge
// step of the component-decomposition layer, where per-component runs have
// decided every job's machine and only the global bookkeeping remains. It
// replays placements through the same incremental accounting as the live
// kernel (per-machine job list, busy hull, span union feeding totalBusy) but
// skips every capacity structure: no shard copies, profiles or index,
// because feasibility was established by the runs being merged. The
// result is sealed — mutating kernel entry points panic on it, since its
// machines carry no oracle to answer them — while every read path (Cost,
// Verify, Summary, Assignment, Detach-style re-derivation) stays valid.
//
// Replay order matters for bitwise equality: Σ busy time is accumulated by
// interval.Spans.Add one placement at a time, so putting jobs in the same
// order the sequential algorithm would have placed them reproduces its
// floating-point accumulation exactly.
type Assembly struct {
	s *Schedule
}

// BeginAssembly starts assembling a schedule for inst with the given number
// of pre-opened machines, drawn from sc (or fresh memory when sc is nil).
func BeginAssembly(inst *Instance, sc *Scratch, machines int) Assembly {
	s := NewScheduleFrom(inst, sc)
	for m := 0; m < machines; m++ {
		s.OpenMachine()
	}
	return Assembly{s: s}
}

// Put appends job index j to machine m. Placements on one machine must
// arrive in the order the originating run placed them, so the machine's job
// list and span union replay identically.
func (a Assembly) Put(j, m int) {
	s := a.s
	if s.assign[j] != Unassigned {
		panic(fmt.Sprintf("core: assembly placed job index %d twice", j))
	}
	st := &s.machines[m]
	job := s.inst.Jobs[j]
	if len(st.jobs) == 0 {
		st.hull = job.Iv
	} else {
		st.hull = st.hull.Hull(job.Iv)
	}
	st.jobs = append(st.jobs, j)
	s.totalBusy += st.spans.Add(job.Iv)
	s.assign[j] = m
}

// Graft adopts already-merged busy-span pieces onto machine m wholesale —
// the stitch merge of the decomposition layer. The pieces come from a
// per-component (or per-shard) run's live span union via
// Schedule.AppendMachineSpans; successive grafts onto one machine must
// arrive in ascending time order with positive gaps between them, which the
// component sweep guarantees (components are separated by gaps of positive
// length). Graft maintains the machine's busy hull but not its total: totals
// are replayed separately (PutDelta or Credit) so the assembled Cost
// reproduces the originating accumulation order bitwise.
func (a Assembly) Graft(m int, pieces []interval.Interval) {
	if len(pieces) == 0 {
		return
	}
	st := &a.s.machines[m]
	if st.spans.Count() == 0 {
		st.hull = interval.Interval{Start: pieces[0].Start, End: pieces[len(pieces)-1].End}
	} else {
		st.hull.End = pieces[len(pieces)-1].End
	}
	st.spans.Graft(pieces)
}

// Credit folds measure into machine m's busy total and the schedule's Cost
// without touching the span pieces — the accounting half of a Graft whose
// per-machine total is already known (the time-sharding merge, where each
// shard machine maps to exactly one global machine).
func (a Assembly) Credit(m int, measure float64) {
	a.s.machines[m].spans.AddMeasure(measure)
	a.s.totalBusy += measure
}

// PutDelta appends job index j to machine m replaying its recorded
// span-union delta instead of re-merging the interval: the machine's job
// list, its busy total and the schedule's Cost advance exactly as the
// originating run's placement did. Placements must arrive in the originating
// global order so the floating-point accumulation reproduces bit for bit;
// the span pieces themselves are adopted separately via Graft.
func (a Assembly) PutDelta(j, m int, delta float64) {
	s := a.s
	if s.assign[j] != Unassigned {
		panic(fmt.Sprintf("core: assembly placed job index %d twice", j))
	}
	st := &s.machines[m]
	st.jobs = append(st.jobs, j)
	st.spans.AddMeasure(delta)
	s.totalBusy += delta
	s.assign[j] = m
}

// PutPlaced appends job index j to machine m updating only the job list and
// assignment — for merges whose span pieces and totals were adopted
// machine-wholesale (Graft + Credit).
func (a Assembly) PutPlaced(j, m int) {
	s := a.s
	if s.assign[j] != Unassigned {
		panic(fmt.Sprintf("core: assembly placed job index %d twice", j))
	}
	s.machines[m].jobs = append(s.machines[m].jobs, j)
	s.assign[j] = m
}

// Finish seals the assembled schedule and returns it.
func (a Assembly) Finish() *Schedule {
	a.s.sealed = true
	return a.s
}

package core

import (
	"math"

	"busytime/internal/interval"
)

// machindex is the machine-selection index behind Schedule.FirstFitAssign:
// it makes the greedy "lowest-indexed machine that fits" scan sublinear by
// combining two structures, both maintained incrementally by Schedule.insert
// and by rejected capacity probes.
//
//  1. A segment tree over machine slots keyed by each machine's busy hull
//     [min,max] and peak load. It answers "lowest-indexed machine whose hull
//     is disjoint from window W or whose peak ≤ g − d" in O(log M). Such a
//     machine is guaranteed to accept the job, so the scan never has to look
//     past it; the answer is exactly where the paper's FirstFit would stop
//     if every earlier machine rejects.
//
//  2. A per-bucket saturation bitmap over the instance's compressed time
//     axis. Bit m of bucket b means "machine m is loaded to ≥ g at every
//     point of bucket b". Bits are derived from saturated runs extracted by
//     rejected capacity probes, which are durable because machines only gain
//     jobs. A probe window overlapping a set bucket therefore contains a
//     saturated point, so the machine provably rejects and whole runs of
//     saturated machines are skipped with word-wide bit operations.
//
// Buckets are the elementary segments of the instance axis (distinct job
// endpoints, decimated past maxTimeBuckets), so bitmap and profile memory
// scale with distinct event times rather than the raw horizon. All bucket
// geometry lives in interval.Axis; the index only consumes precomputed
// bucket ranges.
//
// Soundness is one-directional by construction: the bitmap may only skip
// machines that would certainly reject, and the segment tree may only stop
// the scan at a machine that certainly accepts, so the indexed scan produces
// byte-identical schedules to the linear probe loop.
type machindex struct {
	// Saturation bitmap; nb == 0 disables it (degenerate axis).
	nb      int
	words   int      // uint64 words per bucket (machines / 64, rounded up)
	mask    []uint64 // nb × words, bucket-major
	blocked []uint64 // scratch for the per-probe blocked-machine mask
	// bitmapCap and profileCap are the machine prefixes the bitmap and the
	// load profiles cover, fixed per axis by reset.
	bitmapCap, profileCap int

	// Segment tree over machine slots; standard 1-based array layout with
	// leaves at [size, 2·size). Unopened slots never qualify.
	size     int
	nm       int
	minEnd   []float64 // min busy-hull end per subtree (+inf when empty)
	maxStart []float64 // max busy-hull start per subtree (−inf when empty)
	minPeak  []int32   // min peak load per subtree

	// allocs counts backing-array growth, feeding ScratchStats; a warm index
	// recycled at the same shape performs none.
	allocs int
}

// maxQueryBuckets caps the per-probe bitmap scan; longer windows are sampled
// with a stride, which only under-reports blocked machines and is therefore
// always sound.
const maxQueryBuckets = 1024

// Bitmap and profile memory is O(buckets × machines), so both structures
// cover only a prefix of the machine range: machines beyond the caps are
// still indexed by the segment tree (O(1) per machine) and probed through
// hints and shards — they just can't be skipped by the bitmap or settled by
// a profile, which only costs time, never correctness. The caps come from a
// memory budget over the axis, not from a machine count (see reset): the
// bitmap holds at most bitmapBudget bits (2 MiB) and the profiles at most
// profileBudget (machine, bucket) pairs of two bytes (8 MiB), but never
// fewer than 512 bitmap and 128 profiled machines. On axes of 2¹⁵ buckets
// or more the floors are the caps (at the maximum 2¹⁶ buckets, 4 MiB of
// bitmap and 16 MiB of profiles); a shorter axis covers more machines. That
// is what BestFit needs: its argmin probes every machine, not a low-index
// prefix, and on a lightpath axis (62 buckets) every machine it opens fits
// inside both structures.
const (
	bitmapBudget       = 1 << 24
	profileBudget      = 1 << 22
	minBitmapMachines  = 512
	minProfileMachines = 128
)

const unopenedPeak = math.MaxInt32

// reset reconfigures the index for an instance axis, retaining allocations
// where shapes allow, and drops all machines. The retained bitmap is clean up
// to capacity (the scratch's undo pass erases the rows the last schedule
// marked, see clearRows), so reshaping it never clears.
func (ix *machindex) reset(ia *instanceAxis) {
	ix.nm = 0
	ix.words = 1
	ix.nb = ia.nb
	ix.bitmapCap, ix.profileCap = minBitmapMachines, minProfileMachines
	if ix.nb > 0 {
		ix.bitmapCap = max(minBitmapMachines, bitmapBudget/ix.nb/64*64)
		ix.profileCap = max(minProfileMachines, profileBudget/ix.nb)
	}
	if need := ix.nb * ix.words; cap(ix.mask) < need {
		ix.allocs++
		ix.mask = make([]uint64, need)
	} else {
		ix.mask = ix.mask[:need]
	}
	if cap(ix.blocked) < ix.words {
		ix.allocs++
		ix.blocked = make([]uint64, ix.words)
	} else {
		ix.blocked = ix.blocked[:ix.words]
	}
	ix.clearTree()
}

// clearTree shapes the segment tree for a single unopened leaf. addMachine
// regrows it in place as machines open (growTree), so the tree never costs
// more than the machines the schedule actually opens.
func (ix *machindex) clearTree() {
	if cap(ix.minEnd) < 2 {
		ix.allocs++
		ix.minEnd = make([]float64, 2)
		ix.maxStart = make([]float64, 2)
		ix.minPeak = make([]int32, 2)
	}
	ix.minEnd = ix.minEnd[:2]
	ix.maxStart = ix.maxStart[:2]
	ix.minPeak = ix.minPeak[:2]
	for i := range ix.minEnd {
		ix.minEnd[i] = math.Inf(1)
		ix.maxStart[i] = math.Inf(-1)
		ix.minPeak[i] = unopenedPeak
	}
	ix.size = 1
}

// growTree doubles the tree to hold at least want leaves, preserving the nm
// open leaves in place (no temporary copies, and no allocation when the
// retained capacity suffices).
func (ix *machindex) growTree(want int) {
	oldSize, m := ix.size, ix.nm
	size := oldSize
	if size == 0 {
		size = 1
	}
	for size < want {
		size <<= 1
	}
	if 2*size > cap(ix.minEnd) {
		ix.allocs++
		minEnd := make([]float64, 2*size)
		maxStart := make([]float64, 2*size)
		minPeak := make([]int32, 2*size)
		copy(minEnd[size:], ix.minEnd[oldSize:oldSize+m])
		copy(maxStart[size:], ix.maxStart[oldSize:oldSize+m])
		copy(minPeak[size:], ix.minPeak[oldSize:oldSize+m])
		ix.minEnd, ix.maxStart, ix.minPeak = minEnd, maxStart, minPeak
	} else {
		ix.minEnd = ix.minEnd[:2*size]
		ix.maxStart = ix.maxStart[:2*size]
		ix.minPeak = ix.minPeak[:2*size]
		// size ≥ 2·oldSize ≥ oldSize+m, so the leaf block moves strictly
		// rightward and a forward copy never clobbers unread slots.
		copy(ix.minEnd[size:size+m], ix.minEnd[oldSize:oldSize+m])
		copy(ix.maxStart[size:size+m], ix.maxStart[oldSize:oldSize+m])
		copy(ix.minPeak[size:size+m], ix.minPeak[oldSize:oldSize+m])
	}
	for i := size + m; i < 2*size; i++ {
		ix.minEnd[i] = math.Inf(1)
		ix.maxStart[i] = math.Inf(-1)
		ix.minPeak[i] = unopenedPeak
	}
	for n := size - 1; n >= 1; n-- {
		l, r := 2*n, 2*n+1
		ix.minEnd[n] = math.Min(ix.minEnd[l], ix.minEnd[r])
		ix.maxStart[n] = math.Max(ix.maxStart[l], ix.maxStart[r])
		if ix.minPeak[l] < ix.minPeak[r] {
			ix.minPeak[n] = ix.minPeak[l]
		} else {
			ix.minPeak[n] = ix.minPeak[r]
		}
	}
	ix.size = size
}

// addMachine registers the next machine slot (empty: no hull, peak 0).
func (ix *machindex) addMachine() {
	m := ix.nm
	if m >= ix.size {
		ix.growTree(m + 1)
	}
	ix.nm++
	ix.setLeaf(m, math.Inf(-1), math.Inf(1), 0)
	if ix.nm > 64*ix.words && ix.nm <= ix.bitmapCap {
		ix.growWords()
	}
}

// setLeaf writes a leaf and re-aggregates its ancestors.
func (ix *machindex) setLeaf(m int, hullStart, hullEnd float64, peak int32) {
	n := ix.size + m
	ix.minEnd[n], ix.maxStart[n], ix.minPeak[n] = hullEnd, hullStart, peak
	for n >>= 1; n >= 1; n >>= 1 {
		l, r := 2*n, 2*n+1
		ix.minEnd[n] = math.Min(ix.minEnd[l], ix.minEnd[r])
		ix.maxStart[n] = math.Max(ix.maxStart[l], ix.maxStart[r])
		if ix.minPeak[l] < ix.minPeak[r] {
			ix.minPeak[n] = ix.minPeak[l]
		} else {
			ix.minPeak[n] = ix.minPeak[r]
		}
	}
}

// update refreshes machine m's hull and peak after an insertion.
func (ix *machindex) update(m int, hull interval.Interval, peak int) {
	p := int32(unopenedPeak - 1)
	if peak < int(p) {
		p = int32(peak)
	}
	ix.setLeaf(m, hull.Start, hull.End, p)
}

// qualifies reports whether subtree n can contain a machine that trivially
// accepts a job with window w and slack g−d: hull entirely before the
// window, hull entirely after it, or peak within the slack.
func (ix *machindex) qualifies(n int, w interval.Interval, slack int32) bool {
	return ix.minEnd[n] < w.Start || ix.maxStart[n] > w.End || ix.minPeak[n] <= slack
}

// firstTrivial returns the lowest-indexed machine guaranteed to accept a job
// with window w and demand g−slack, or −1 when no machine trivially fits.
// All three leaf conditions imply acceptance: a disjoint hull admits any job
// with demand ≤ g (an empty machine reports peak 0 and is covered by the
// slack condition), and peak ≤ g−d bounds the load anywhere inside w.
func (ix *machindex) firstTrivial(w interval.Interval, slack int32) int {
	if ix.nm == 0 || !ix.qualifies(1, w, slack) {
		return -1
	}
	n := 1
	for n < ix.size {
		if ix.qualifies(2*n, w, slack) {
			n = 2 * n
		} else {
			n = 2*n + 1
		}
	}
	m := n - ix.size
	if m >= ix.nm {
		return -1
	}
	return m
}

// growWords widens the bitmap rows by one word, preserving existing bits. It
// widens in place when the retained capacity suffices: rows are moved back
// to front, so a destination row only ever overlaps source rows that have
// already been moved.
func (ix *machindex) growWords() {
	old := ix.words
	ix.words = old + 1
	need := ix.nb * ix.words
	if cap(ix.mask) < need {
		ix.allocs++
		mask := make([]uint64, need)
		for b := 0; b < ix.nb; b++ {
			copy(mask[b*ix.words:b*ix.words+old], ix.mask[b*old:(b+1)*old])
		}
		ix.mask = mask
	} else {
		ix.mask = ix.mask[:need]
		for b := ix.nb - 1; b >= 0; b-- {
			ix.mask[b*ix.words+old] = 0
			for w := old - 1; w >= 0; w-- {
				ix.mask[b*ix.words+w] = ix.mask[b*old+w]
			}
		}
	}
	if cap(ix.blocked) < ix.words {
		ix.allocs++
		ix.blocked = make([]uint64, ix.words)
	} else {
		ix.blocked = ix.blocked[:ix.words]
	}
}

// profileBuckets returns the bucketed-profile size for machine m: the full
// axis grid inside the profile prefix, zero (no profile) beyond it.
func (ix *machindex) profileBuckets(m int) int {
	if m >= ix.profileCap {
		return 0
	}
	return ix.nb
}

// markBucket records that machine m is loaded to ≥ g at every point of
// bucket b; machines beyond the bitmap prefix are not tracked.
func (ix *machindex) markBucket(m, b int) {
	if m >= 64*ix.words {
		return
	}
	ix.mask[b*ix.words+m/64] |= 1 << (m % 64)
}

// clearRows zeroes bitmap word w — the bits of machines 64w..64w+63 — in
// the rows of buckets [lo, hi]: the undo of every markBucket(m, b) with m/64
// == w and b in that range. Words past the bitmap prefix hold no bits.
func (ix *machindex) clearRows(w, lo, hi int) {
	if w < 0 || w >= ix.words {
		return
	}
	for b := lo; b <= hi; b++ {
		ix.mask[b*ix.words+w] = 0
	}
}

// blockedMask ORs the saturation rows of the buckets [lo, hi] (a window's
// axis overlap range) into the scratch mask and returns it: a set bit means
// the machine has a fully saturated bucket intersecting the window and
// therefore provably rejects any job on it. The mask is valid until the next
// call.
func (ix *machindex) blockedMask(lo, hi int) []uint64 {
	bl := ix.blocked[:ix.words]
	for i := range bl {
		bl[i] = 0
	}
	if lo > hi {
		return bl
	}
	step := 1
	if n := hi - lo + 1; n > maxQueryBuckets {
		step = n/maxQueryBuckets + 1
	}
	for b := lo; b <= hi; b += step {
		row := ix.mask[b*ix.words : b*ix.words+ix.words]
		for i := range bl {
			bl[i] |= row[i]
		}
	}
	return bl
}

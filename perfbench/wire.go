package main

import (
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"busytime"
	"busytime/internal/generator"
	"busytime/internal/server"
)

// legWindows is how many equal windows a leg's measurements are split
// into; a leg reports the median of the per-window figures, so a burst of
// interference from outside the benchmark moves one window, not the result.
const legWindows = 16

// openWindows is the open leg's window count: at full size a window holds
// about a thousand batches, so even its p99 has ten or more beyond it.
const openWindows = 64

// windowedQuantile returns the median over openWindows consecutive, equal
// runs of batches of each run's frame-weighted q-quantile latency.
func windowedQuantile(lat []weighted, q float64) time.Duration {
	per := make([]time.Duration, 0, openWindows)
	for i := 0; i < openWindows; i++ {
		part := lat[i*len(lat)/openWindows : (i+1)*len(lat)/openWindows]
		if len(part) > 0 {
			per = append(per, weightedQuantile(part, q))
		}
	}
	return median(per)
}

// wireSpec is the wire workload: one load-generating process driving a
// busyschedd subprocess over loopback, an open-loop leg at a fixed offered
// rate and then a closed-loop leg, each on its own set of tenants.
type wireSpec struct {
	g         int     // daemon -g
	conns     int     // connections, each owning tenants idx%conns
	tenants   int     // tenants per leg; batches rotate over them
	batch     int     // place frames per batch
	live      int     // generator.Stream live-job target per tenant
	maxDemand int     // demands uniform in [1, maxDemand]
	rate      float64 // open leg offered placements per second
	openShare float64 // share of the run spent in the open leg
	chunk     int     // generated jobs per tenant before its stream repeats, shifted
	window    int     // closed leg: batches in flight per connection
}

// tenantStream is one tenant's deterministic frame source: arrivals from
// generator.Stream repeated pass after pass with a time shift, so a stream
// of any length keeps non-decreasing starts; one in eight placed jobs is
// released early, in the tenant's next batch.
type tenantStream struct {
	name  string
	jobs  []generator.StreamJob
	shift float64
	salt  uint64
}

func newTenantStream(name string, seed int64, idx int, spec wireSpec) *tenantStream {
	jobs := generator.Stream(instanceSeed(seed, idx), spec.chunk, spec.live, spec.maxDemand)
	return &tenantStream{
		name:  name,
		jobs:  jobs,
		shift: jobs[len(jobs)-1].Iv.Start + 1,
		salt:  uint64(instanceSeed(seed, 1<<20+idx)),
	}
}

func (s *tenantStream) job(i int) (start, end float64, demand int) {
	j := s.jobs[i%len(s.jobs)]
	off := float64(i/len(s.jobs)) * s.shift
	return j.Iv.Start + off, j.Iv.End + off, j.Demand
}

// released reports whether job i is released early: the low bits of a
// splitmix64 hash of the tenant's salt and i.
func (s *tenantStream) released(i int) bool {
	z := s.salt ^ uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z^(z>>31))&7 == 0
}

// releases calls f on each job released in tenant batch k: the early
// releases among the jobs placed by batch k-1.
func (s *tenantStream) releases(k, batch int, f func(job int)) {
	if k == 0 {
		return
	}
	for j := (k - 1) * batch; j < k*batch; j++ {
		if s.released(j) {
			f(j)
		}
	}
}

// sendBatch buffers and flushes tenant batch k: its releases, then its
// places. It returns the number of frames sent.
func sendBatch(w *server.Client, h uint32, s *tenantStream, k, batch int) (int, error) {
	frames := 0
	var err error
	s.releases(k, batch, func(j int) {
		if err == nil {
			err = w.SendRelease(h, j)
			frames++
		}
	})
	for i := k * batch; i < (k+1)*batch && err == nil; i++ {
		start, end, demand := s.job(i)
		err = w.SendPlace(h, start, end, demand)
		frames++
	}
	if err != nil {
		return frames, err
	}
	return frames, w.Flush()
}

// tally is what the client saw for one tenant.
type tally struct {
	batches  int
	placed   int
	released int
}

// readBatch reads the replies of tenant batch k in order, checking each:
// a release gets a release acknowledgement, and place i gets a placement
// with job id i (the pool numbers a tenant's jobs in arrival order). It
// returns the number of replies that failed a check.
func readBatch(r *server.Client, s *tenantStream, k, batch int, t *tally) (bad int, err error) {
	n := 0
	s.releases(k, batch, func(int) { n++ })
	for ; n > 0; n-- {
		rp, err := r.ReadReply()
		if err != nil {
			return bad, err
		}
		switch {
		case rp.IsPlaced() || rp.IsReject() || rp.Payload != nil:
			bad++
		case rp.OK:
			t.released++
		}
	}
	for i := k * batch; i < (k+1)*batch; i++ {
		rp, err := r.ReadReply()
		if err != nil {
			return bad, err
		}
		if !rp.IsPlaced() || rp.Job != i {
			bad++
			continue
		}
		t.placed++
	}
	return bad, nil
}

// wconn is one data-plane connection. Replies are read through r and
// frames written through w, two Clients over the same socket, so the
// open leg can send from one goroutine while another reads.
type wconn struct {
	nc      net.Conn
	r, w    *server.Client
	handles map[int]uint32 // tenant index → handle, for the tenants it owns
}

// wireRun is a set-up wire workload.
type wireRun struct {
	spec    wireSpec
	d       *daemon
	conns   []*wconn
	streams []*tenantStream // open-leg tenants, then closed-leg tenants
	tallies []tally
	corrupt bool
	closed  bool
}

// close hangs up and stops the daemon; calls after the first do nothing.
func (w *wireRun) close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	for _, c := range w.conns {
		c.nc.Close()
	}
	return w.d.stop()
}

func setupWire(spec wireSpec, cfg runConfig) (*wireRun, error) {
	d, err := startDaemon(cfg.daemon, spec.g)
	if err != nil {
		return nil, err
	}
	w := &wireRun{spec: spec, d: d, tallies: make([]tally, 2*spec.tenants)}
	for i := 0; i < 2*spec.tenants; i++ {
		name := fmt.Sprintf("open-%d", i)
		if i >= spec.tenants {
			name = fmt.Sprintf("closed-%d", i-spec.tenants)
		}
		w.streams = append(w.streams, newTenantStream(name, cfg.seed, i, spec))
	}
	for c := 0; c < spec.conns; c++ {
		nc, err := net.Dial("tcp", d.data)
		if err != nil {
			w.close()
			return nil, err
		}
		wc := &wconn{nc: nc, r: server.NewClient(nc), w: server.NewClient(nc), handles: map[int]uint32{}}
		w.conns = append(w.conns, wc)
		for i := c; i < len(w.streams); i += spec.conns {
			h, err := wc.r.Open(w.streams[i].name)
			if err != nil {
				w.close()
				return nil, err
			}
			wc.handles[i] = h
		}
		if err := wc.r.Ping(); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

// openLeg offers batches at the fixed rate from one pacing goroutine (this
// one) while a reader per connection collects replies. A batch's latency
// runs from its due time to its last reply, so a stall of the daemon or of
// the generator counts against every batch it delays.
func (w *wireRun) openLeg(d time.Duration, rep *report, tr *tracer) (lat []weighted, late []time.Duration, err error) {
	spec := w.spec
	nb := int(spec.rate * d.Seconds() / float64(spec.batch))
	if nb < spec.tenants {
		nb = spec.tenants
	}
	interval := time.Duration(float64(spec.batch) / spec.rate * float64(time.Second))
	lat = make([]weighted, nb)
	late = make([]time.Duration, nb)
	t0 := time.Now().Add(5 * time.Millisecond)
	due := func(b int) time.Time { return t0.Add(time.Duration(b) * interval) }
	owner := func(b int) int { return (b % spec.tenants) % spec.conns }

	var wg sync.WaitGroup
	bad := make([]int, len(w.conns))
	errs := make([]error, len(w.conns))
	for c := range w.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			wc := w.conns[c]
			for b := 0; b < nb; b++ {
				if owner(b) != c {
					continue
				}
				t := b % spec.tenants
				n, err := readBatch(wc.r, w.streams[t], b/spec.tenants, spec.batch, &w.tallies[t])
				bad[c] += n
				if err != nil {
					errs[c] = err
					wc.nc.Close() // unblock the sender
					return
				}
				lat[b].D = time.Since(due(b))
			}
		}(c)
	}
	// Go timers wake about 1ms late, too coarse for an 80µs batch interval,
	// so the pacer spins, yielding the core to the daemon and the readers
	// whenever they are runnable. Spinning also keeps a core awake: a pacer
	// that slept in nanosleep between batches measured lower latencies, but
	// their run-to-run spread was two to four times wider, set by how fast
	// idle cores woke.
	var sendErr error
	for b := 0; b < nb && sendErr == nil; b++ {
		at := due(b)
		for wait := time.Until(at); wait > 0; wait = time.Until(at) {
			if wait > 2*time.Millisecond {
				time.Sleep(wait - time.Millisecond)
			} else {
				syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
			}
		}
		late[b] = time.Since(at)
		t := b % spec.tenants
		wc := w.conns[owner(b)]
		sp := tr.begin("client.encode", 0, int64(b))
		lat[b].Weight, sendErr = sendBatch(wc.w, wc.handles[t], w.streams[t], b/spec.tenants, spec.batch)
		tr.end(sp)
	}
	if sendErr != nil {
		for _, wc := range w.conns {
			wc.nc.Close() // unblock the readers
		}
	}
	wg.Wait()
	for t := 0; t < spec.tenants; t++ {
		w.tallies[t].batches = (nb - t + spec.tenants - 1) / spec.tenants
	}
	for c := range w.conns {
		rep.failN(bad[c], "open leg: conn %d: unexpected reply", c)
		if errs[c] != nil {
			return nil, nil, fmt.Errorf("open leg: conn %d: %w", c, errs[c])
		}
	}
	if sendErr != nil {
		return nil, nil, fmt.Errorf("open leg: %w", sendErr)
	}
	for _, l := range lat {
		rep.Attempted += l.Weight
	}
	return lat, late, nil
}

// closedLeg runs one closed loop per connection for d, rotating over the
// connection's closed-leg tenants and keeping spec.window batches in
// flight: it sends window batches, then reads the oldest batch's replies
// before sending the next. It returns the median over legWindows equal
// windows of accepted placements per second, and the batch round-trip
// times, each from the batch's send to its last reply.
func (w *wireRun) closedLeg(d time.Duration, rep *report, tr *tracer) (rate float64, rtt []time.Duration, frames int, err error) {
	spec := w.spec
	var wg sync.WaitGroup
	window := d / legWindows
	type out struct {
		rtt    []time.Duration
		placed [legWindows]int // accepted placements by completion window
		frames int
		bad    int
		tr     *tracer
		err    error
	}
	type flight struct {
		t    int // tenant
		k    int // tenant batch
		sent time.Time
		root openSpan
	}
	outs := make([]out, len(w.conns))
	start := time.Now()
	deadline := start.Add(d)
	for c := range w.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			if tr != nil {
				o.tr = newTracer(tr.origin, c+1)
			}
			wc := w.conns[c]
			var owned []int
			for t := spec.tenants; t < 2*spec.tenants; t++ {
				if t%spec.conns == c {
					owned = append(owned, t)
				}
			}
			var (
				inflight []flight
				sent     = map[int]int{} // tenant → batches sent
			)
			send := func(turn int) bool {
				t := owned[turn%len(owned)]
				k := w.tallies[t].batches + sent[t]
				req := int64(c)<<32 | int64(turn)
				root := o.tr.begin("client.batch", 0, req)
				sp := o.tr.begin("client.encode", root.id, req)
				tb := time.Now()
				n, err := sendBatch(wc.w, wc.handles[t], w.streams[t], k, spec.batch)
				o.tr.end(sp)
				if err != nil {
					o.err = err
					return false
				}
				sent[t]++
				o.frames += n
				inflight = append(inflight, flight{t: t, k: k, sent: tb, root: root})
				return true
			}
			turn := 0
			for ; turn < spec.window; turn++ {
				if !send(turn) {
					return
				}
			}
			for len(inflight) > 0 {
				f := inflight[0]
				inflight = inflight[1:]
				ty := &w.tallies[f.t]
				before := ty.placed
				sp := o.tr.begin("client.wait", f.root.id, f.root.req)
				bad, err := readBatch(wc.r, w.streams[f.t], f.k, spec.batch, ty)
				o.tr.end(sp)
				o.tr.end(f.root)
				now := time.Now()
				win := min(int(now.Sub(start)/window), legWindows-1)
				o.rtt = append(o.rtt, now.Sub(f.sent))
				o.bad += bad
				if err != nil {
					o.err = err
					return
				}
				ty.batches++
				sent[f.t]--
				o.placed[win] += ty.placed - before
				if now.Before(deadline) {
					if !send(turn) {
						return
					}
					turn++
				}
			}
		}(c)
	}
	wg.Wait()
	var placed [legWindows]int
	for c, o := range outs {
		tr.merge(o.tr)
		rtt = append(rtt, o.rtt...)
		for i, n := range o.placed {
			placed[i] += n
		}
		frames += o.frames
		rep.Attempted += o.frames
		rep.failN(o.bad, "closed leg: conn %d: unexpected reply", c)
		if o.err != nil {
			return 0, nil, 0, fmt.Errorf("closed leg: conn %d: %w", c, o.err)
		}
	}
	rates := make([]float64, legWindows)
	for i, n := range placed {
		rates[i] = float64(n) / window.Seconds()
	}
	slices.Sort(rates)
	return rates[legWindows/2], rtt, frames, nil
}

// serverStats fetches every tenant's Stats frame.
func (w *wireRun) serverStats() ([]busytime.OnlineStats, error) {
	out := make([]busytime.OnlineStats, len(w.streams))
	for c, wc := range w.conns {
		for i := c; i < len(w.streams); i += w.spec.conns {
			if err := wc.w.SendStats(wc.handles[i]); err != nil {
				return nil, err
			}
			if err := wc.w.Flush(); err != nil {
				return nil, err
			}
			rp, err := wc.r.ReadReply()
			if err != nil {
				return nil, err
			}
			if err := json.Unmarshal(rp.Payload, &out[i]); err != nil {
				return nil, fmt.Errorf("tenant %s stats (reply op 0x%02x): %w", w.streams[i].name, rp.Op, err)
			}
		}
	}
	return out, nil
}

// replayTimes is the in-process replay's timing.
type replayTimes struct {
	place, release   time.Duration
	places, releases int
}

// replay sends the identical per-tenant frame sequences through an
// in-process OnlinePool (the daemon's pool, without the wire) and checks
// each tenant against the daemon: client counts equal the tenant's Stats
// frame, and cost and machine count equal the replay's.
func (w *wireRun) replay(srv []busytime.OnlineStats, rep *report) (replayTimes, error) {
	var rt replayTimes
	s, err := busytime.New()
	if err != nil {
		return rt, err
	}
	pool, err := s.OnlinePool(w.spec.g, "firstfit")
	if err != nil {
		return rt, err
	}
	b := w.spec.batch
	reqs := make([]busytime.PlaceRequest, b)
	res := make([]busytime.PlaceResult, b)
	for i, ts := range w.streams {
		var relErr error
		released := 0
		for k := 0; k < w.tallies[i].batches; k++ {
			t := time.Now()
			ts.releases(k, b, func(j int) {
				ok, err := pool.Release(ts.name, j)
				if err != nil && relErr == nil {
					relErr = err
				}
				if ok {
					released++
				}
				rt.releases++
			})
			rt.release += time.Since(t)
			for q := range reqs {
				start, end, demand := ts.job(k*b + q)
				reqs[q] = busytime.PlaceRequest{Iv: busytime.Interval{Start: start, End: end}, Demand: demand}
			}
			t = time.Now()
			err := pool.PlaceBatch(ts.name, reqs, res)
			rt.place += time.Since(t)
			rt.places += b
			if err != nil {
				return rt, err
			}
		}
		want, _ := pool.Stats(ts.name)
		got := srv[i]
		if w.corrupt {
			got.Cost++
		}
		ty := w.tallies[i]
		switch {
		case relErr != nil:
			err = relErr
		case uint64(ty.placed) != got.Placed || uint64(ty.released) != got.Released:
			err = fmt.Errorf("tenant %s: client saw %d placed, %d released; daemon reports %d, %d",
				ts.name, ty.placed, ty.released, got.Placed, got.Released)
		case released != ty.released:
			err = fmt.Errorf("tenant %s: %d early releases over the wire, %d in process", ts.name, ty.released, released)
		case got.Cost != want.Cost || got.Machines != want.Machines:
			err = fmt.Errorf("tenant %s: daemon cost %v on %d machines, in-process replay %v on %d",
				ts.name, got.Cost, got.Machines, want.Cost, want.Machines)
		}
		rep.gate(err)
	}
	return rt, nil
}

func runWire(spec wireSpec, cfg runConfig, rep *report) error {
	if cfg.daemon == "" {
		return fmt.Errorf("wire workload needs -daemon, the busyschedd binary")
	}
	var (
		w      *wireRun
		setups []time.Duration
	)
	for r := 0; r < setupRounds; r++ {
		if w != nil {
			if err := w.close(); err != nil {
				return fmt.Errorf("stopping set-up round %d daemon: %w", r, err)
			}
		}
		t := time.Now()
		var err error
		if w, err = setupWire(spec, cfg); err != nil {
			return err
		}
		setups = append(setups, time.Since(t))
	}
	defer w.close()
	w.corrupt = cfg.corrupt
	// The client and the daemon share one CPU while they are measured.
	// Spread over two virtual CPUs, replies kept waking an idle one, and
	// those wake-ups swung the figures by 15% from run to run; on one CPU
	// the same runs agree within a few percent.
	restore, err := confine(w.d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	defer restore()
	rep.Details["measured_cpus"] = 1
	var tr *tracer
	if cfg.trace {
		tr = newTracer(time.Now(), 0)
	}
	openDur := time.Duration(float64(cfg.duration) * spec.openShare)
	closedDur := cfg.duration - openDur
	for _, c := range w.conns {
		c.nc.SetDeadline(time.Now().Add(cfg.duration + time.Minute))
	}
	lat, late, err := w.openLeg(openDur, rep, tr)
	if err != nil {
		return err
	}
	var (
		rate, tracedRate float64
		rtt              []time.Duration
		frames           int
	)
	if cfg.trace {
		if rate, _, _, err = w.closedLeg(closedDur/2, rep, nil); err != nil {
			return err
		}
		if tracedRate, rtt, frames, err = w.closedLeg(closedDur/2, rep, tr); err != nil {
			return err
		}
	} else if rate, rtt, frames, err = w.closedLeg(closedDur, rep, nil); err != nil {
		return err
	}
	srv, err := w.serverStats()
	if err != nil {
		return err
	}
	snap, err := fetchServerStats(w.d.control)
	if err != nil {
		return err
	}
	cpu, err := procCPU(w.d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(strconv.Itoa(w.d.cmd.Process.Pid))
	if err != nil {
		return err
	}
	if err := w.close(); err != nil {
		return fmt.Errorf("daemon shutdown: %w", err)
	}
	rt, err := w.replay(srv, rep)
	if err != nil {
		return err
	}

	rep.Details["open_rate_per_s"] = spec.rate
	rep.Details["open_batches"] = len(lat)
	rep.Details["closed_batches"] = len(rtt)
	rep.Details["conns"] = spec.conns
	rep.Details["tenants_per_leg"] = spec.tenants
	rep.Details["batch"] = spec.batch
	rep.Details["setup_rounds"] = setupRounds
	if !cfg.trace {
		ratios := make([]float64, spec.tenants)
		for i := range ratios {
			ratios[i] = srv[i].Ratio
		}
		rep.set("setup_s", median(setups).Seconds(), "s")
		rep.set("latency_ms_p50", ms(windowedQuantile(lat, 0.5)), "ms")
		rep.set("latency_ms_p90", ms(windowedQuantile(lat, 0.90)), "ms")
		rep.set("jobs_per_s", rate, "jobs/s")
		rep.set("cost_ratio", meanOf(ratios), "ratio")
		rep.set("peak_rss_mb", rss, "MB")
		return nil
	}

	setAbsent(rep, offlineLayers)
	interval := time.Duration(float64(spec.batch) / spec.rate * float64(time.Second))
	lateMax, lateN := time.Duration(0), 0
	for _, l := range late {
		lateMax = max(lateMax, l)
		if l > interval {
			lateN++
		}
	}
	var expired, compactions, peakLive, machines float64
	for _, st := range srv {
		expired += float64(st.Expired)
		compactions += float64(st.Compactions)
		peakLive += float64(st.PeakLive)
		machines += float64(st.Machines)
	}
	nt := float64(len(srv))
	placeNs := float64(rt.place) / float64(rt.places)
	for _, l := range lat {
		frames += l.Weight
	}
	rep.set("client.encode_ns_per_frame", float64(tr.total["client.encode"])/float64(frames), "ns/frame")
	rep.set("client.rtt_us_p50", float64(median(rtt))/1e3, "us")
	rep.set("wire.latency_us_p99", float64(windowedQuantile(lat, 0.99))/1e3, "us")
	rep.set("server.place_us_p50", float64(snap.Place.P50)/1e3, "us")
	rep.set("server.place_us_p99", float64(snap.Place.P99)/1e3, "us")
	rep.set("server.cpu_ns_per_place", float64(cpu)/float64(snap.Accepted), "ns")
	rep.set("online.place_ns", placeNs, "ns")
	rep.set("online.release_ns", float64(rt.release)/float64(max(rt.releases, 1)), "ns")
	rep.set("online.expired", expired/nt, "count")
	rep.set("online.compactions", compactions/nt, "count")
	rep.set("online.peak_live", peakLive/nt, "count")
	rep.set("online.machines", machines/nt, "count")
	rep.set("wire.overhead_ns_per_place", 1e9/rate-placeNs, "ns")
	rep.set("loadgen.late_ms_max", ms(lateMax), "ms")
	rep.set("loadgen.late_frac", float64(lateN)/float64(len(late)), "ratio")
	rep.set("trace.overhead_frac", rate/tracedRate-1, "ratio")
	return cfg.dumpSpans(tr, rep)
}

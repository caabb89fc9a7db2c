package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"time"

	"zigzag/internal/core"
	"zigzag/internal/runner"
	"zigzag/internal/serve"
	"zigzag/internal/session"
)

// subStream is one serve.NewSynthetic stream inside an AP workload's
// input: its own seed-derived senders and client table, served by a
// freshly armed receiver (session.StreamReceiver) as a new association.
type subStream struct {
	lo, hi   int // sample range in apStream.samples
	chunk0   int // index of its first chunk
	clients  []core.Client
	episodes int
}

// apStream is a pre-rendered AP input: sub-streams back to back, cut
// into chunks that never straddle a sub-stream boundary.
type apStream struct {
	k           int
	subEpisodes int
	samples     []complex128
	subs        []subStream
	chunks      []chunkRef
	episodes    int
	unique      int64
}

type chunkRef struct{ sub, lo, hi int }

// renderAP renders whole sub-streams until the stream holds at least
// p.minSamples samples and p.minEpisodes episodes. Sub-stream s draws
// everything from runner.TrialSeed(seed, s). buf, when large enough,
// is reused for the samples.
func renderAP(p apParams, seed int64, buf []complex128) (*apStream, error) {
	st := &apStream{k: p.k, subEpisodes: p.subEpisodes, samples: buf[:0]}
	for s := 0; s == 0 || len(st.samples) < p.minSamples || st.episodes < p.minEpisodes; s++ {
		g, err := serve.NewSynthetic(synthConfig(p.k, p.subEpisodes, runner.TrialSeed(seed, s)))
		if err != nil {
			return nil, err
		}
		lo := len(st.samples)
		st.samples, err = readAll(g, st.samples)
		if err != nil {
			g.Close()
			return nil, err
		}
		if per := len(st.samples); s == 0 {
			// Size the buffer once from the first sub-stream, so the
			// stream is not copied as it grows.
			need := (2+max(p.minSamples/per, p.minEpisodes/p.subEpisodes))*per + per/8
			if cap(st.samples) < need {
				grown := make([]complex128, per, need)
				copy(grown, st.samples)
				st.samples = grown
			}
		}
		st.subs = append(st.subs, subStream{lo: lo, hi: len(st.samples), chunk0: len(st.chunks),
			clients: g.Clients(), episodes: p.subEpisodes})
		for c := lo; c < len(st.samples); c += chunkSamples {
			st.chunks = append(st.chunks, chunkRef{sub: s, lo: c, hi: min(c+chunkSamples, len(st.samples))})
		}
		st.episodes += p.subEpisodes
		st.unique += g.UniqueFrames
		g.Close()
	}
	return st, nil
}

// warmChunks is how much of the stream set-up decodes once, so the
// measured pass starts on a warm session.
const warmChunks = 64

// head returns a view of st's first n chunks, all in its first
// sub-stream.
func (st *apStream) head(n int) *apStream {
	h := *st
	h.subs = st.subs[:1]
	h.chunks = st.chunks[:min(n, len(st.chunks), st.subs[0].hi/chunkSamples)]
	h.episodes = st.subEpisodes
	return &h
}

func readAll(src serve.Source, dst []complex128) ([]complex128, error) {
	for {
		if cap(dst)-len(dst) < chunkSamples {
			dst = append(dst[:cap(dst)], make([]complex128, max(cap(dst), 4*chunkSamples))...)[:len(dst)]
		}
		n, err := src.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// sliceSource replays a pre-rendered stream to serve.Engine.
type sliceSource struct{ buf []complex128 }

func (s *sliceSource) Read(p []complex128) (int, error) {
	if len(s.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.buf)
	s.buf = s.buf[n:]
	return n, nil
}

// Poll outcomes, by the events a reception's PollOne returned.
const (
	outStandard = iota
	outZigzag
	outCapture
	outStored // nothing delivered: stored, or undecodable
	numOutcomes
)

func classify(evs []core.Event) int {
	cls := outStored
	for i := range evs {
		if evs[i].Frame == nil {
			continue
		}
		switch evs[i].Via {
		case core.ViaZigzag:
			return outZigzag
		case core.ViaCapture:
			cls = outCapture
		case core.ViaStandard:
			if cls == outStored {
				cls = outStandard
			}
		}
	}
	return cls
}

// subTally is one sub-stream's delivered output, counted the way
// serve.Report counts it.
type subTally struct {
	standard, zigzag, capture, failed int64
	digest                            uint64
	// crashed is set when a PollOne panicked: the sub-stream's remaining
	// chunks are skipped and its undelivered frames count as failed.
	crashed bool
}

// digestFrame folds one delivered frame into an order-sensitive FNV-1a
// digest, byte for byte as serve.Report.FrameDigest does.
func digestFrame(h uint64, ev *core.Event) uint64 {
	const prime = 1099511628211
	mix := func(h uint64, b byte) uint64 { return (h ^ uint64(b)) * prime }
	f := ev.Frame
	h = mix(h, f.Src)
	h = mix(h, f.Dst)
	h = mix(h, byte(f.Seq))
	h = mix(h, byte(f.Seq>>8))
	h = mix(h, byte(ev.Via))
	for _, b := range f.Payload {
		h = mix(h, b)
	}
	return h
}

// loopConfig selects how runAPLoop drives the receiver.
type loopConfig struct {
	// rate is the open-loop sample clock (samples/s); 0 is closed loop.
	rate float64
	// traced times every public call and records the layer counters.
	traced bool
	// stall, when non-nil, runs on the receiver goroutine before chunk i
	// is ingested; tests use it to stall the receiver.
	stall func(i int)
}

// apPass is one pass of an AP stream through the receiver.
type apPass struct {
	tallies   []subTally
	delivered []bool // by (sub·subEpisodes + seq)·4 + src-1
	panics    int    // PollOne calls that panicked
	panicMsg  string // the first one's value
	latMs     []float64
	doneNs    []int64 // monoNs at each latency sample's PollOne return
	wallNs    int64
	busyNs    int64 // receiver time spent ingesting and polling
	dropped   int64

	// Traced pass only.
	ingestNs    int64
	samples     int64
	pollMs      []float64
	pollByOut   [numOutcomes][]float64
	pollAllocs  uint64
	storeMax    int
	queueMs     []float64
	backlogMax  int
	genLagMaxNs int64
}

// runAPLoop pushes st through one receiver from sess, re-armed with
// each sub-stream's client table. Open loop: a generator goroutine
// releases chunk i when its last sample is due on the sample clock and
// never waits for the receiver; the receiver drains after every chunk.
// Closed loop: chunk i is due the instant chunk i-1 is fully decoded.
// A reception's latency runs from the due time of the chunk holding
// its last sample to the return of its PollOne.
func runAPLoop(st *apStream, sess *session.Session, lc loopConfig) *apPass {
	n := len(st.chunks)
	ps := &apPass{
		tallies:   make([]subTally, len(st.subs)),
		delivered: make([]bool, st.episodes*4),
		latMs:     make([]float64, 0, st.episodes*st.k),
		doneNs:    make([]int64, 0, st.episodes*st.k),
	}
	basis := fnv.New64a().Sum64()
	for i := range ps.tallies {
		ps.tallies[i].digest = basis
	}
	allocs := newAllocCounter()
	if lc.traced {
		ps.pollMs = make([]float64, 0, st.episodes*st.k)
		ps.queueMs = make([]float64, 0, n)
	}

	dueNs := make([]int64, n)
	t0 := time.Now()
	now := func() int64 { return int64(time.Since(t0)) }
	base := int64(t0.Sub(epoch))

	var ch chan int
	var wg sync.WaitGroup
	if lc.rate > 0 {
		for i, c := range st.chunks {
			dueNs[i] = int64(float64(c.hi) * 1e9 / lc.rate)
		}
		// Sized to every chunk, so the generator never blocks on a slow
		// receiver: the backlog queues here, visibly.
		ch = make(chan int, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(ch)
			for i := 0; i < n; i++ {
				if d := dueNs[i] - now(); d > 0 {
					time.Sleep(time.Duration(d))
				}
				if lag := now() - dueNs[i]; lag > ps.genLagMaxNs {
					ps.genLagMaxNs = lag
				}
				ch <- i
			}
		}()
	}

	var z *core.Receiver
	sub := -1
	drain := func() {
		for z.Pending() > 0 && !ps.tallies[sub].crashed {
			var a0 uint64
			var p0 int64
			if lc.traced {
				a0 = allocs.read()
				p0 = now()
			}
			evs, info, panicked := pollOne(z)
			t := now()
			if panicked != nil {
				ps.tallies[sub].crashed = true
				if ps.panics++; ps.panicMsg == "" {
					ps.panicMsg = fmt.Sprint(panicked)
				}
				return
			}
			if lc.traced {
				ps.pollAllocs += allocs.read() - a0
				ms := nsToMs(t - p0)
				ps.pollMs = append(ps.pollMs, ms)
				cls := classify(evs)
				ps.pollByOut[cls] = append(ps.pollByOut[cls], ms)
				ps.storeMax = max(ps.storeMax, z.StoredCollisions())
			}
			s := &st.subs[sub]
			last := int(info.End) - 1
			ps.latMs = append(ps.latMs, nsToMs(t-dueNs[s.chunk0+last/chunkSamples]))
			ps.doneNs = append(ps.doneNs, base+t)
			ps.tally(st, sub, evs)
		}
	}

	var prevEnd int64
	for next := 0; ; next++ {
		var i int
		if ch != nil {
			var ok bool
			if i, ok = <-ch; !ok {
				break
			}
			if lc.traced {
				ps.backlogMax = max(ps.backlogMax, len(ch))
			}
		} else {
			if next == n {
				break
			}
			i = next
			dueNs[i] = prevEnd
			if lag := now() - dueNs[i]; lc.traced && lag > ps.genLagMaxNs {
				ps.genLagMaxNs = lag
			}
		}
		if lc.stall != nil {
			lc.stall(i)
		}
		tStart := now()
		if lc.traced {
			ps.queueMs = append(ps.queueMs, nsToMs(tStart-dueNs[i]))
		}
		c := st.chunks[i]
		if c.sub != sub {
			sub = c.sub
			z = sess.StreamReceiver(st.subs[sub].clients, streamConfig)
		}
		if ps.tallies[sub].crashed {
			prevEnd = now()
			continue
		}
		if lc.traced {
			ps.samples += int64(c.hi - c.lo)
			z.Ingest(st.samples[c.lo:c.hi])
			ps.ingestNs += now() - tStart
		} else {
			z.Ingest(st.samples[c.lo:c.hi])
		}
		drain()
		if c.hi == st.subs[sub].hi && !ps.tallies[sub].crashed {
			// End of the sub-stream: close it the way serve.Engine does.
			z.FlushStream()
			drain()
			ps.dropped += z.Stream().Dropped
		}
		prevEnd = now()
		ps.busyNs += prevEnd - tStart
	}
	ps.wallNs = now()
	wg.Wait()
	return ps
}

// pollOne is Receiver.PollOne with a panic in the decode returned as a
// value, so one bad reception cannot end the run: serve.Engine crashes
// on it just the same, and checkEngine checks that it does.
func pollOne(z *core.Receiver) (evs []core.Event, info core.PollInfo, panicked any) {
	defer func() { panicked = recover() }()
	evs, info, _ = z.PollOne()
	return evs, info, nil
}

func (ps *apPass) tally(st *apStream, sub int, evs []core.Event) {
	t := &ps.tallies[sub]
	for i := range evs {
		ev := &evs[i]
		if ev.Frame == nil {
			t.failed++
			continue
		}
		switch ev.Via {
		case core.ViaStandard:
			t.standard++
		case core.ViaZigzag:
			t.zigzag++
		case core.ViaCapture:
			t.capture++
		}
		t.digest = digestFrame(t.digest, ev)
		seq, src := int(ev.Frame.Seq), int(ev.Frame.Src)
		if seq < st.subEpisodes && src >= 1 && src <= 4 {
			ps.delivered[(sub*st.subEpisodes+seq)*4+src-1] = true
		}
	}
}

// delivery counts distinct frames delivered and the episodes that lost
// at least one of their frames.
func (ps *apPass) delivery(st *apStream) (frames int64, failedEpisodes int) {
	for ep := 0; ep < st.episodes; ep++ {
		offered := st.k
		if ep%st.subEpisodes%cleanEvery == cleanEvery-1 {
			offered = 1
		}
		got := 0
		for src := 0; src < offered; src++ {
			if ps.delivered[ep*4+src] {
				got++
			}
		}
		frames += int64(got)
		if got < offered {
			failedEpisodes++
		}
	}
	return frames, failedEpisodes
}

// checkEngine compares a pass's delivered output with serve.Engine.Run
// on the same pre-rendered sub-streams: counts per Via, failed events
// and the frame digest must all agree, and nothing may be shed.
func checkEngine(st *apStream, ps *apPass, res *result) {
	if ps.dropped != 0 {
		res.failf("bench loop shed %d receptions", ps.dropped)
	}
	for s, sub := range st.subs {
		rep, err, panicked := runEngine(sub.clients, st.samples[sub.lo:sub.hi])
		t := ps.tallies[s]
		switch {
		case t.crashed != (panicked != nil):
			res.failf("sub-stream %d: bench loop crashed %v, serve.Engine crashed %v (%v)", s, t.crashed, panicked != nil, panicked)
		case t.crashed:
			// Both crashed; serve.Engine leaves no report to compare.
		case err != nil:
			res.failf("sub-stream %d: serve.Engine: %v", s, err)
		case rep.Dropped != 0:
			res.failf("sub-stream %d: serve.Engine shed %d receptions", s, rep.Dropped)
		case rep.Standard != t.standard || rep.Zigzag != t.zigzag || rep.Capture != t.capture || rep.Failed != t.failed:
			res.failf("sub-stream %d: via counts standard/zigzag/capture/failed %d/%d/%d/%d, serve.Engine %d/%d/%d/%d",
				s, t.standard, t.zigzag, t.capture, t.failed, rep.Standard, rep.Zigzag, rep.Capture, rep.Failed)
		case rep.FrameDigest != t.digest:
			res.failf("sub-stream %d: frame digest %#x, serve.Engine %#x", s, t.digest, rep.FrameDigest)
		}
	}
}

// runEngine serves one sub-stream through a fresh serve.Engine,
// returning a panic in its decode as a value.
func runEngine(clients []core.Client, samples []complex128) (rep *serve.Report, err error, panicked any) {
	e := serve.NewEngine(serve.Config{Clients: clients, Stream: streamConfig})
	defer e.Close()
	defer func() { panicked = recover() }()
	rep, err = e.Run(&sliceSource{buf: samples})
	return rep, err, nil
}

// samePass reports whether two passes over one stream delivered the
// same output.
func samePass(a, b *apPass) bool {
	if len(a.tallies) != len(b.tallies) {
		return false
	}
	for i := range a.tallies {
		if a.tallies[i] != b.tallies[i] {
			return false
		}
	}
	return true
}

// streamDigest folds the per-sub-stream tallies into one summary.
func streamDigest(ps *apPass) (std, zz, capt, failed int64, digest uint64) {
	digest = fnv.New64a().Sum64()
	for _, t := range ps.tallies {
		std += t.standard
		zz += t.zigzag
		capt += t.capture
		failed += t.failed
		for sh := 0; sh < 64; sh += 8 {
			digest = (digest ^ (t.digest >> sh & 0xff)) * 1099511628211
		}
	}
	return
}

type apSetup struct {
	st   *apStream
	sess *session.Session
}

func runAPWorkload(opt options, p apParams) (*result, error) {
	// Each set-up renders into the previous one's sample buffer, so the
	// repeats time the rendering rather than the first touch of fresh
	// pages.
	var buf []complex128
	setup, setupS, err := timeSetup(setupReps, func() (apSetup, error) {
		st, err := renderAP(p, opt.seed, buf)
		if err != nil {
			return apSetup{}, err
		}
		sess := session.Acquire(core.DefaultConfig())
		runAPLoop(st.head(warmChunks), sess, loopConfig{})
		return apSetup{st: st, sess: sess}, nil
	}, func(s apSetup) {
		session.Release(s.sess)
		buf = s.st.samples
	})
	if err != nil {
		return nil, err
	}
	defer session.Release(setup.sess)
	st := setup.st
	res := &result{}
	lc := loopConfig{rate: p.rate}

	hs := startHostSampler()
	ps := runAPLoop(st, setup.sess, lc)
	heapMB := hs.stop()
	// The median comes from the calmest quarter of the pass, the tails
	// (per-layer) from the calmest half, so they keep 10 samples beyond.
	lat := masked(ps.latMs, hs.calm(ps.doneNs, 0.25))
	tail := masked(ps.latMs, hs.calm(ps.doneNs, 0.5))

	delivered, failedEps := ps.delivery(st)
	res.attempted = st.unique
	res.failed = st.unique - delivered
	wallS := float64(ps.wallNs) / 1e9
	res.set("setup_s", setupS)
	res.set("heap_peak_mb", heapMB)
	res.set("latency_p50_ms", quantile(lat, 0.50))
	res.set("latency_p90_ms", quantile(tail, 0.90)) // per-layer: see perLayer
	res.set("latency_p99_ms", quantile(tail, 0.99)) // per-layer: see perLayer
	res.set("frames_per_s", float64(st.unique)/wallS)
	res.set("trials_per_s", float64(st.episodes)/wallS)
	res.notef("# %s seed %d: %d sub-streams, %d episodes, %d samples, %d receptions, %d/%d frames delivered, generator lag max %.2f ms",
		opt.workload, opt.seed, len(st.subs), st.episodes, len(st.samples), len(ps.latMs), delivered, st.unique, nsToMs(ps.genLagMaxNs))
	if ps.panics > 0 {
		res.notef("# the receiver panicked on %d receptions, first: %s; those sub-streams' undelivered frames count as failed", ps.panics, ps.panicMsg)
	}
	res.notef("# host stole %.0f ms of CPU; median from %d receptions in calm windows; whole pass p50/p90/p99 %.3f/%.3f/%.3f ms",
		hs.stolenMs(), len(lat), quantile(ps.latMs, 0.50), quantile(ps.latMs, 0.90), quantile(ps.latMs, 0.99))

	if opt.trace {
		lc.traced = true
		var tp *apPass
		prof, err := cpuProfile(func() { tp = runAPLoop(st, setup.sess, lc) })
		if err != nil {
			return nil, err
		}
		if !samePass(ps, tp) {
			res.failf("traced pass delivered different frames from the untraced pass")
		}
		apLayerMetrics(res, tp)
		res.set("trace.overhead_ratio", float64(tp.busyNs)/float64(ps.busyNs))
		res.set("delivery_ratio", float64(delivered)/float64(st.unique))
		res.set("ber", 0.5*float64(st.unique-delivered)/float64(st.unique))
		res.set("episode_failure_ratio", float64(failedEps)/float64(st.episodes))
		shares(res, opt.workload, prof)
		if err := componentProbes(res, opt.seed, st); err != nil {
			return nil, err
		}
		if err := campaignProbe(res, opt.seed); err != nil {
			return nil, err
		}
	}

	checkEngine(st, ps, res)
	checkRecorded(res, opt.workload)
	return res, nil
}

// apLayerMetrics records the per-layer metrics a traced pass measured.
func apLayerMetrics(res *result, tp *apPass) {
	res.set("core.ingest.ns_per_sample", float64(tp.ingestNs)/float64(tp.samples))
	res.set("core.poll.ms_mean", mean(tp.pollMs))
	res.set("core.poll.ms_p99", quantile(tp.pollMs, 0.99))
	res.set("core.poll.standard_ms", mean(tp.pollByOut[outStandard]))
	res.set("core.poll.zigzag_ms", mean(tp.pollByOut[outZigzag]))
	res.set("core.poll.capture_ms", mean(tp.pollByOut[outCapture]))
	res.set("core.poll.stored_ms", mean(tp.pollByOut[outStored]))
	res.set("core.poll.allocs_per_reception", float64(tp.pollAllocs)/float64(len(tp.pollMs)))
	res.set("core.store.depth_max", float64(tp.storeMax))
	res.set("core.poll.panics", float64(tp.panics))
	res.set("serve.queue_wait_ms_p99", quantile(tp.queueMs, 0.99))
	res.set("serve.backlog_max_chunks", float64(tp.backlogMax))
	res.set("serve.generator_lag_ms_max", nsToMs(tp.genLagMaxNs))
	res.notef("# poll outcomes standard/zigzag/capture/stored: %d/%d/%d/%d receptions",
		len(tp.pollByOut[outStandard]), len(tp.pollByOut[outZigzag]), len(tp.pollByOut[outCapture]), len(tp.pollByOut[outStored]))
}

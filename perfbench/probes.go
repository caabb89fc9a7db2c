package main

import (
	"time"

	"zigzag/internal/channel"
	"zigzag/internal/core"
	"zigzag/internal/dsp/fft"
	"zigzag/internal/frame"
	"zigzag/internal/modem"
	"zigzag/internal/phy"
	"zigzag/internal/runner"
	"zigzag/internal/session"
)

// Component probes: warmed-up calls into one layer's public function on
// the workload's own receptions, timed and allocation-counted from
// outside. Each probe repeats its call set for about probeBudget.
const (
	probeBudget   = 250 * time.Millisecond
	probeEpisodes = 12 // collision episodes taken from the stream
	sicPairs      = 6  // k=2 collisions built for the SIC/sync/mix probes
	sicSNRdB      = 13
	sicNoise      = 0.05
	anchorSample  = 40 // serve.NewSynthetic places its first sender here
)

// probeEpisode is one collision episode framed out of an AP stream.
type probeEpisode struct {
	recs    [][]complex128
	clients []core.Client
}

// episodesOf frames the first sub-streams of st and returns up to n
// collision episodes (all k receptions of the same k packets).
func episodesOf(st *apStream, n int) []probeEpisode {
	var out []probeEpisode
	for _, sub := range st.subs {
		var bursts [][]complex128
		fr := phy.NewFramer(phy.FramerConfig{Threshold: streamConfig.GateThreshold, IdleGap: streamConfig.IdleGap, MaxWindow: streamConfig.MaxWindow})
		emit := func(b []complex128, _ phy.BurstInfo) { bursts = append(bursts, append([]complex128(nil), b...)) }
		fr.Push(st.samples[sub.lo:sub.hi], emit)
		fr.Flush(emit)
		want := 0
		for ep := 0; ep < sub.episodes; ep++ {
			want += recsIn(st.k, ep)
		}
		if len(bursts) != want {
			continue // a forced cut; the episode grouping would be wrong
		}
		for ep := 0; ep < sub.episodes && len(out) < n; ep++ {
			r := recsIn(st.k, ep)
			if r > 1 {
				out = append(out, probeEpisode{recs: bursts[:r], clients: sub.clients})
			}
			bursts = bursts[r:]
		}
		if len(out) == n {
			break
		}
	}
	return out
}

func recsIn(k, ep int) int {
	if ep%cleanEvery == cleanEvery-1 {
		return 1
	}
	return k
}

// repeat runs pass until probeBudget has elapsed (at least once, after
// one untimed warm-up pass) and returns the mean time and allocations
// per call, where one pass makes calls calls.
func repeat(calls int, pass func()) (nsPerCall, allocsPerCall float64) {
	if calls == 0 {
		return 0, 0
	}
	pass()
	ac := newAllocCounter()
	a0 := ac.read()
	t0 := time.Now()
	passes := 0
	for passes == 0 || time.Since(t0) < probeBudget {
		pass()
		passes++
	}
	el := time.Since(t0)
	n := float64(passes * calls)
	return float64(el.Nanoseconds()) / n, float64(ac.read()-a0) / n
}

// componentProbes records the detect, match, fft, sic, sync and mix
// probe metrics. Detect, match and fft run on episodes framed from st;
// sic, sync and mix on k=2 collisions built with session/channel calls.
func componentProbes(res *result, seed int64, st *apStream) error {
	cfg := core.DefaultConfig()
	eps := episodesOf(st, probeEpisodes)

	sy := phy.NewSynchronizer(cfg.PHY)
	var recs int
	for _, ep := range eps {
		recs += len(ep.recs)
	}
	ns, al := repeat(recs, func() {
		for _, ep := range eps {
			for _, rx := range ep.recs {
				for _, c := range ep.clients {
					sy.DetectFor(rx, c.Freq, core.DefaultDetectBeta, c.Amp)
				}
			}
		}
	})
	res.set("phy.detect.ms_per_reception", ns/1e6)
	res.set("phy.detect.allocs_per_reception", al)

	// Store matching: the episode's first reception is the stored
	// collision, its last the fresh retransmission.
	type locate struct {
		stored, fresh, ref []complex128
		start              float64
		cands              int
	}
	var locs []locate
	skip := (cfg.PHY.PreambleBits + modem.SymbolCount(modem.BPSK, frame.HeaderBits)) * cfg.PHY.SamplesPerSymbol
	for _, ep := range eps {
		stored, fresh := ep.recs[0], ep.recs[len(ep.recs)-1]
		s, ok := sy.Measure(stored, anchorSample, 3, ep.clients[0].Freq)
		is := int(s.Start) + skip
		if !ok || is < 0 || is+core.MatchWindow > len(stored) {
			continue
		}
		cands := 3
		if st.k > 2 {
			cands = 2 * st.k
		}
		locs = append(locs, locate{stored: stored, fresh: fresh, ref: stored[is : is+core.MatchWindow], start: s.Start, cands: cands})
	}
	ns, al = repeat(len(locs), func() {
		for _, l := range locs {
			core.LocatePacket(cfg, l.stored, l.start, l.fresh, l.cands)
		}
	})
	res.set("core.match.ms_per_locate", ns/1e6)
	res.set("core.match.allocs_per_locate", al)

	var scratch fft.Scratch
	var prof []complex128
	ns, al = repeat(len(locs), func() {
		for _, l := range locs {
			prof = fft.Correlate(prof, l.fresh, l.ref, 0, &scratch)
		}
	})
	res.set("dsp.fft.us_per_correlate", ns/1e3)
	res.set("dsp.fft.allocs_per_correlate", al)

	return sicProbes(res, seed)
}

// sicPair is one k=2 collision set: two receptions of the same two
// packets at different offsets, synced the way an offline decoder is.
type sicPair struct {
	metas []core.PacketMeta
	recs  []*core.Reception
	// offsets are the true packet offsets, re-measured by the sync probe.
	offsets [][]int
}

// sicProbes builds sicPairs k=2 collisions with session and channel
// calls (timing the mixes), syncs them with Synchronizer.Measure
// (timed), and times core.DecodeWith on them.
func sicProbes(res *result, seed int64) error {
	cfg := core.DefaultConfig()
	sess := session.Acquire(cfg)
	defer session.Release(sess)
	rng := runner.SeededRand(runner.TrialSeed(seed, 1<<20))
	sess.ResetRand(rng)
	air := sess.Air
	air.NoisePower, air.RandomizePhase = sicNoise, true
	isi := channel.TypicalISI(1)
	payload := make([]byte, payloadBytes)

	var pairs []sicPair
	var mixNs int64
	var mixes int
	for p := 0; p <= sicPairs; p++ { // pair 0 warms the session's arenas
		var sp sicPair
		var ems []channel.Emission
		for i := 0; i < 2; i++ {
			rng.Read(payload)
			f := &frame.Frame{Src: uint8(i + 1), Dst: 99, Seq: uint16(p), Scheme: modem.BPSK, Payload: payload}
			link := sess.Link(i)
			link.Randomize(rng, sicSNRdB, sicNoise, 0, 0.35, isi)
			link.FreqOffset = 0.004 - 0.0065*float64(i)
			w, err := sess.Waveform(i, f)
			if err != nil {
				return err
			}
			truth, err := sess.TruthBits(i, f)
			if err != nil {
				return err
			}
			ems = append(ems, channel.Emission{Samples: w, Link: link})
			sp.metas = append(sp.metas, core.PacketMeta{Scheme: modem.BPSK, Freq: link.FreqOffset * 0.98, BitLen: len(truth)})
		}
		for _, jitter := range []int{1 + rng.Intn(15), 16 + rng.Intn(15)} {
			offs := []int{anchorSample, anchorSample + jitter*20}
			ems[0].Offset, ems[1].Offset = offs[0], offs[1]
			n := max(offs[0]+len(ems[0].Samples), offs[1]+len(ems[1].Samples)) + 80
			t0 := time.Now()
			rx := sess.Mix(n, ems...)
			if p > 0 {
				mixNs += time.Since(t0).Nanoseconds()
				mixes++
			}
			rec := &core.Reception{Samples: append([]complex128(nil), rx...)}
			for i, off := range offs {
				s, ok := sess.Sync.Measure(rec.Samples, off, 3, sp.metas[i].Freq)
				if ok {
					rec.Packets = append(rec.Packets, core.Occurrence{Packet: i, Sync: s})
				}
			}
			sp.recs = append(sp.recs, rec)
			sp.offsets = append(sp.offsets, offs)
		}
		if p > 0 {
			pairs = append(pairs, sp)
		}
	}
	res.set("channel.mix_us_per_reception", float64(mixNs)/float64(mixes)/1e3)

	var measures int
	for _, sp := range pairs {
		for _, o := range sp.offsets {
			measures += len(o)
		}
	}
	ns, _ := repeat(measures, func() {
		for _, sp := range pairs {
			for r, offs := range sp.offsets {
				for i, off := range offs {
					sess.Sync.Measure(sp.recs[r].Samples, off, 3, sp.metas[i].Freq)
				}
			}
		}
	})
	res.set("phy.sync.us_per_measure", ns/1e3)

	var sc core.Scratch
	ns, al := repeat(len(pairs), func() {
		for _, sp := range pairs {
			core.DecodeWith(&sc, cfg, sp.metas, sp.recs)
		}
	})
	res.set("core.sic.ms_per_decode", ns/1e6)
	res.set("core.sic.allocs_per_decode", al)
	return nil
}

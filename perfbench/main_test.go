package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"zigzag/internal/core"
	"zigzag/internal/session"
)

// The metric lists in main.go, the workloads map and interactions.json
// must agree with BENCHMARK.json.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, main.go %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s/%s, main.go %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, main.go %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s/%s, main.go %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	var names []string
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
		names = append(names, w.Name)
	}

	ib, err := os.ReadFile("interactions.json")
	if err != nil {
		t.Fatal(err)
	}
	var it struct {
		EndToEnd map[string]map[string]string `json:"end_to_end"`
		PerLayer map[string]struct {
			Module   string
			How      string
			Moves    []struct{ Metric, Workload string }
			NotMoves []struct{ Metric, Workload string } `json:"not_moves"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(ib, &it); err != nil {
		t.Fatal(err)
	}
	isE2E := map[string]bool{}
	for _, m := range endToEnd {
		isE2E[m.name] = true
		for _, w := range names {
			if it.EndToEnd[m.name][w] == "" {
				t.Errorf("interactions.json: no definition of %s on %s", m.name, w)
			}
		}
	}
	for _, m := range perLayer {
		e, ok := it.PerLayer[m.name]
		if !ok || e.Module == "" || e.How == "" {
			t.Errorf("interactions.json: %s lacks module/how", m.name)
			continue
		}
		for _, p := range append(e.Moves, e.NotMoves...) {
			if _, ok := workloads[p.Workload]; !ok || !isE2E[p.Metric] {
				t.Errorf("interactions.json: %s names unknown pairing %s on %s", m.name, p.Metric, p.Workload)
			}
		}
	}
	if len(it.PerLayer) != len(perLayer) {
		t.Errorf("interactions.json has %d per-layer entries, main.go %d", len(it.PerLayer), len(perLayer))
	}
}

// The bench loop must deliver exactly what serve.Engine delivers on the
// same pre-rendered stream, open loop (ap-pairs) and closed (ap-kway3).
// Seed 307's 31st k=2 sub-stream made the receiver panic when this test
// was written (dsp.Resampler.EvalGrid under phy.Modeler.FitISI); the
// loop must survive it and agree with serve.Engine either way.
func TestBenchLoopAgreesWithEngine(t *testing.T) {
	for _, c := range []struct {
		p    apParams
		seed int64
	}{
		{apParams{k: 2, subEpisodes: pairsSubEpisodes, minEpisodes: 2 * pairsSubEpisodes, rate: pairsRate}, 5},
		{apParams{k: 3, subEpisodes: kway3SubEpisodes, minEpisodes: kway3SubEpisodes}, 5},
		{apParams{k: 2, subEpisodes: pairsSubEpisodes, minEpisodes: 31 * pairsSubEpisodes}, 307},
	} {
		p := c.p
		st, err := renderAP(p, c.seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		sess := session.Acquire(core.DefaultConfig())
		ps := runAPLoop(st, sess, loopConfig{rate: p.rate})
		session.Release(sess)
		var res result
		checkEngine(st, ps, &res)
		for _, m := range res.mismatch {
			t.Errorf("k=%d: %s", p.k, m)
		}
		if frames, _ := ps.delivery(st); frames == 0 {
			t.Errorf("k=%d: no frames delivered", p.k)
		}
	}
}

// Open-loop latency runs from the due time on the sample clock, not from
// when the receiver got around to a chunk: a stalled receiver must show
// in queue wait and latency, and not in its own PollOne times.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	st, err := renderAP(apParams{k: 2, subEpisodes: pairsSubEpisodes, minEpisodes: 2 * pairsSubEpisodes}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := session.Acquire(core.DefaultConfig())
	defer session.Release(sess)
	runAPLoop(st.head(warmChunks), sess, loopConfig{})
	base := runAPLoop(st, sess, loopConfig{rate: pairsRate, traced: true})
	const stall = 30 * time.Millisecond
	stalled := runAPLoop(st, sess, loopConfig{rate: pairsRate, traced: true, stall: func(i int) {
		if i%64 == 63 {
			time.Sleep(stall)
		}
	}})
	if !samePass(base, stalled) {
		t.Fatal("stalling the receiver changed its output")
	}
	const rise = 15 // ms, half the stall
	if b, s := quantile(base.queueMs, 0.99), quantile(stalled.queueMs, 0.99); s < b+rise {
		t.Errorf("serve.queue_wait_ms_p99 %.2f stalled vs %.2f, want a rise of %d ms", s, b, rise)
	}
	if b, s := quantile(base.latMs, 0.99), quantile(stalled.latMs, 0.99); s < b+rise {
		t.Errorf("latency_p99_ms %.2f stalled vs %.2f, want a rise of %d ms", s, b, rise)
	}
	if b, s := mean(base.pollMs), mean(stalled.pollMs); s > 1.5*b {
		t.Errorf("core.poll.ms_mean %.2f stalled vs %.2f: the stall leaked into poll time", s, b)
	}
}

// expect.json must hold the outputs the current code produces.
func TestRecordedOutputs(t *testing.T) {
	for _, w := range []string{"ap-pairs", "ap-kway3", "campaign-city"} {
		var res result
		checkRecorded(&res, w)
		for _, m := range res.mismatch {
			t.Errorf("%s: %s", w, m)
		}
	}
}

// The share table charges store-matching work to the match layer.
func TestLayerSamplesChargesMatch(t *testing.T) {
	st, err := renderAP(apParams{k: 2, subEpisodes: pairsSubEpisodes, minEpisodes: pairsSubEpisodes}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	eps := episodesOf(st, 4)
	if len(eps) == 0 {
		t.Fatal("no collision episodes framed")
	}
	cfg := core.DefaultConfig()
	prof, err := cpuProfile(func() {
		for t0 := time.Now(); time.Since(t0) < 500*time.Millisecond; {
			for _, ep := range eps {
				core.LocatePacket(cfg, ep.recs[0], anchorSample, ep.recs[1], 3)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	counts, total, err := layerSamples(prof)
	if err != nil {
		t.Fatal(err)
	}
	// Loose enough for the race detector, whose runtime takes samples of
	// its own outside any layer.
	if total == 0 || float64(counts["match"]) < 0.3*float64(total) {
		t.Errorf("match samples %d of %d", counts["match"], total)
	}
	for _, l := range shareLayers {
		if l != "match" && l != "other" && counts[l] >= counts["match"] {
			t.Errorf("%s samples %d >= match samples %d", l, counts[l], counts["match"])
		}
	}
}

// A bad invocation exits non-zero without printing a result.
func TestBadInvocationPrintsNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "ap-pairs", "--trace", "2"},
		{"--workload", "ap-pairs", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// Windows in which the host stole CPU are left out; a host that steals
// nothing keeps every sample.
func TestCalmSkipsStolenWindows(t *testing.T) {
	h := &hostSampler{start: 0, end: 2000}
	for ns := int64(0); ns <= 2000; ns += 50 {
		var j int64
		if ns >= 350 {
			j += 40 // stolen in window 3
		}
		if ns >= 1550 {
			j += 90 // stolen in window 15
		}
		h.steal = append(h.steal, stealSample{ns, j})
	}
	var times []int64
	for ns := int64(50); ns < 2000; ns += 100 {
		times = append(times, ns)
	}
	for w, ok := range h.calm(times, 0.5) {
		if want := w != 3 && w != 15; ok != want {
			t.Errorf("window %d calm = %v, want %v", w, ok, want)
		}
	}
	quiet := &hostSampler{start: 0, end: 2000, steal: []stealSample{{0, 7}, {2000, 7}}}
	for w, ok := range quiet.calm(times, 0.25) {
		if !ok {
			t.Errorf("window %d left out on a host that steals nothing", w)
		}
	}
}

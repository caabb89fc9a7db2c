package main

import (
	"time"

	"zigzag/internal/campaign"
	"zigzag/internal/core"
	"zigzag/internal/runner"
	"zigzag/internal/session"
)

// cityConfig is the full-scale city campaign (5 cells × 10 stations,
// 200 B payloads, k=2, static channel) with trials trials, one trial
// per runner block so every worker stays busy inside a shard.
func cityConfig(seed int64, trials, workers int) campaign.Config {
	cfg := campaign.DefaultConfig()
	cfg.Cells, cfg.StationsPerCell, cfg.Payload, cfg.K = 5, 10, payloadBytes, 2
	cfg.Trials, cfg.Workers, cfg.BlockSize, cfg.Seed = trials, workers, 1, seed
	return cfg
}

// cityPass is one pass over a campaign's shards at a fixed worker count.
type cityPass struct {
	acc *campaign.Acc
	// shardReport is Acc.Report of each of the first keep shards: the
	// accumulator's observables, which the campaign engine reproduces
	// bit for bit at any worker count. (Its JSON carries exact-sum
	// partials whose split depends on merge order, so it is not
	// compared.)
	shardReport []string
	shardMs     []float64
	shardDone   []int64 // monoNs at each shard's return
	wallNs      int64
	allocs      uint64
}

// runCity runs shards [0, shards) of cfg in order, each through
// campaign.Run, merging their accumulators. Per-trial seeds derive from
// the global trial index, so the merge equals the unsharded run.
func runCity(cfg campaign.Config, shards, keep int) (*cityPass, error) {
	ps := &cityPass{acc: campaign.NewAcc(), shardMs: make([]float64, 0, shards)}
	ac := newAllocCounter()
	a0 := ac.read()
	t0 := time.Now()
	for i := 0; i < shards; i++ {
		ts := time.Now()
		acc, err := campaign.Run(cfg, shards, i, nil)
		if err != nil {
			return nil, err
		}
		ps.shardMs = append(ps.shardMs, float64(time.Since(ts).Nanoseconds())/1e6)
		ps.shardDone = append(ps.shardDone, monoNs())
		if i < keep {
			ps.shardReport = append(ps.shardReport, acc.Report())
		}
		ps.acc.Merge(acc)
	}
	ps.wallNs = time.Since(t0).Nanoseconds()
	ps.allocs = ac.read() - a0
	return ps, nil
}

// warmupSeed seeds campaign-city's set-up trials.
const warmupSeed = -1

// checkShards is how many leading shards are re-run at one worker: the
// byte-identity check, and the base of runner.speedup_nproc.
const checkShards = 16

// cityShards is the number of shards of one trial per worker that fill
// about seconds on the reference host.
func cityShards(seconds int) int {
	return max(checkShards, campaignTrialsPerSecond*seconds/nproc())
}

func runCampaignWorkload(opt options) (*result, error) {
	workers := nproc()
	shards := cityShards(opt.seconds)
	trials := shards * workers
	cfg := cityConfig(opt.seed, trials, workers)

	// Set-up: take one pooled session per worker and run a few warm-up
	// trials on each, so arenas and caches are filled before timing. The
	// warm-up input is the same for every seed: it is set-up work, not
	// measured input.
	_, setupS, err := timeSetup(setupReps, func() (struct{}, error) {
		sess := make([]*session.Session, workers)
		for i := range sess {
			sess[i] = session.Acquire(core.DefaultConfig())
		}
		for _, s := range sess {
			session.Release(s)
		}
		_, err := campaign.Run(cityConfig(warmupSeed, 4*workers, workers), 1, 0, nil)
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return nil, err
	}

	res := &result{}
	hs := startHostSampler()
	ps, err := runCity(cfg, shards, checkShards)
	heapMB := hs.stop()
	if err != nil {
		return nil, err
	}
	// The median latency and the throughput come from the shards in the
	// calmest quarter of the pass, the tails (per-layer) from the calmest
	// half (see hostSampler.calm).
	lat := masked(ps.shardMs, hs.calm(ps.shardDone, 0.25))
	tail := masked(ps.shardMs, hs.calm(ps.shardDone, 0.5))
	var calmMs float64
	for _, ms := range lat {
		calmMs += ms
	}
	rate := float64(len(lat)*workers) / (calmMs / 1e3)
	acc := ps.acc
	res.attempted = acc.Episodes.Value()
	res.failed = acc.Failures.Value()
	res.set("setup_s", setupS)
	res.set("heap_peak_mb", heapMB)
	res.set("latency_p50_ms", quantile(lat, 0.50))
	res.set("latency_p90_ms", quantile(tail, 0.90)) // per-layer: see perLayer
	res.set("latency_p99_ms", quantile(tail, 0.99)) // per-layer: see perLayer
	res.set("frames_per_s", rate*float64((acc.Episodes.Value()-acc.Failures.Value())*int64(cfg.K))/float64(trials))
	res.set("trials_per_s", rate)
	res.notef("# campaign-city seed %d: %d trials in %d shards at %d workers, %d episodes, %d failed, BER %.5f",
		opt.seed, trials, shards, workers, acc.Episodes.Value(), acc.Failures.Value(), acc.BER())
	res.notef("# host stole %.0f ms of CPU; %d of %d shards in calm windows; whole pass %.2f trials/s",
		hs.stolenMs(), len(lat), shards, float64(trials)/(float64(ps.wallNs)/1e9))

	// Byte identity at one worker on the leading shards.
	one := cfg
	one.Workers = 1
	var oneMs float64
	for i := 0; i < checkShards; i++ {
		ts := time.Now()
		a, err := campaign.Run(one, shards, i, nil)
		oneMs += float64(time.Since(ts).Nanoseconds()) / 1e6
		if err != nil {
			return nil, err
		}
		if a.Report() != ps.shardReport[i] {
			res.failf("shard %d: accumulator at 1 worker differs from %d workers", i, workers)
		}
	}
	if acc.Trials.Value() != int64(trials) {
		res.failf("merged %d trials, ran %d", acc.Trials.Value(), trials)
	}

	if opt.trace {
		var tp *cityPass
		var runErr error
		prof, err := cpuProfile(func() { tp, runErr = runCity(cfg, shards, checkShards) })
		if err == nil {
			err = runErr
		}
		if err != nil {
			return nil, err
		}
		if tp.acc.Report() != acc.Report() {
			res.failf("traced pass accumulator differs from the untraced pass")
		}
		var nMs float64
		for _, ms := range tp.shardMs[:checkShards] {
			nMs += ms
		}
		res.set("runner.speedup_nproc", oneMs/nMs)
		res.set("campaign.allocs_per_trial", float64(tp.allocs)/float64(trials))
		res.set("trace.overhead_ratio", float64(tp.wallNs)/float64(ps.wallNs))
		res.set("delivery_ratio", 1-acc.FailureRate())
		res.set("ber", acc.BER())
		res.set("episode_failure_ratio", acc.FailureRate())
		shares(res, opt.workload, prof)
		if err := apProbe(res, opt.seed); err != nil {
			return nil, err
		}
	}

	checkRecorded(res, opt.workload)
	return res, nil
}

// campaignProbe measures the campaign-layer metrics on an AP workload's
// traced run: a small city campaign at nproc workers and at one.
func campaignProbe(res *result, seed int64) error {
	const shards = checkShards
	cfg := cityConfig(runner.TrialSeed(seed, 1<<22), shards*nproc(), nproc())
	if _, err := runCity(cfg, 1, 0); err != nil { // warm-up
		return err
	}
	n, err := runCity(cfg, shards, 0)
	if err != nil {
		return err
	}
	cfg.Workers = 1
	one, err := runCity(cfg, shards, 0)
	if err != nil {
		return err
	}
	res.set("runner.speedup_nproc", float64(one.wallNs)/float64(n.wallNs))
	res.set("campaign.allocs_per_trial", float64(n.allocs)/float64(cfg.Trials))
	return nil
}

// apProbe measures the AP-layer metrics on campaign-city's traced run:
// a short closed-loop k=2 stream through the traced bench loop, and the
// component probes on its receptions.
func apProbe(res *result, seed int64) error {
	st, err := renderAP(apParams{k: 2, subEpisodes: pairsSubEpisodes, minEpisodes: 2 * pairsSubEpisodes}, runner.TrialSeed(seed, 1<<23), nil)
	if err != nil {
		return err
	}
	sess := session.Acquire(core.DefaultConfig())
	defer session.Release(sess)
	runAPLoop(st, sess, loopConfig{}) // warm-up
	tp := runAPLoop(st, sess, loopConfig{traced: true})
	apLayerMetrics(res, tp)
	return componentProbes(res, seed, st)
}

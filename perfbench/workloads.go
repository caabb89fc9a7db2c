package main

import (
	"runtime"

	"zigzag/internal/core"
	"zigzag/internal/serve"
)

// Workload parameters. The AP streams are serve.NewSynthetic traffic:
// 200 B payloads, every 4th episode a clean packet, static channel.
// Each workload's input is cut into sub-streams with their own
// seed-derived senders (see renderAP), so one run averages over many
// link draws instead of riding on one.
const (
	chunkSamples = 512 // serve.Engine's default read size
	payloadBytes = 200
	cleanEvery   = 4
	setupReps    = 5

	// pairsRate is ap-pairs' offered load in samples per second: about a
	// third of the k=2 receiver's closed-loop capacity on the reference
	// host (2-thread Xeon, 0.8-1.0 M samples/s). Every stage carries real
	// load, and the ±25% swings in that host's CPU speed leave the queue
	// far from saturation, so tail latency tracks the receiver's cost
	// instead of amplifying the host's noise.
	pairsRate        = 300_000
	pairsSubEpisodes = 16

	// kway3EpisodesPerSecond sizes ap-kway3's closed-loop input so its
	// measured phase lasts about -seconds on the reference host.
	kway3EpisodesPerSecond = 2.5
	kway3SubEpisodes       = 4

	// campaignTrialsPerSecond sizes campaign-city's fixed trial count the
	// same way; trials run in shards of one trial per worker.
	campaignTrialsPerSecond = 125
)

var workloads = map[string]func(options) (*result, error){
	"ap-pairs":      func(o options) (*result, error) { return runAPWorkload(o, pairsParams(o.seconds)) },
	"ap-kway3":      func(o options) (*result, error) { return runAPWorkload(o, kway3Params(o.seconds)) },
	"campaign-city": runCampaignWorkload,
}

// apParams describes one AP workload's stream and loop.
type apParams struct {
	k           int
	subEpisodes int
	// minSamples/minEpisodes size the stream: whole sub-streams are
	// rendered until both are reached.
	minSamples  int
	minEpisodes int
	// rate is the open-loop sample clock in samples/s; 0 runs the loop
	// closed (next chunk as soon as the previous one is decoded).
	rate float64
}

func pairsParams(seconds int) apParams {
	return apParams{k: 2, subEpisodes: pairsSubEpisodes, minSamples: pairsRate * seconds, rate: pairsRate}
}

func kway3Params(seconds int) apParams {
	return apParams{k: 3, subEpisodes: kway3SubEpisodes, minEpisodes: int(kway3EpisodesPerSecond*float64(seconds) + 0.5)}
}

// streamConfig is the ingest front end every AP run uses, the bench
// loop and the serve.Engine reference alike.
var streamConfig = core.StreamConfig{}

func synthConfig(k, episodes int, seed int64) serve.SynthConfig {
	return serve.SynthConfig{Seed: seed, K: k, Episodes: episodes, Payload: payloadBytes, CleanEvery: cleanEvery}
}

func nproc() int { return runtime.GOMAXPROCS(0) }

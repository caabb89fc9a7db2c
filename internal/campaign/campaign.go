// Package campaign is the city-scale Monte-Carlo engine: a multi-cell
// topology of overlapping 802.11 BSSes whose hidden-terminal collisions
// are decoded by the ZigZag session engine, folded through streaming,
// exactly mergeable reducers.
//
// The paper's testbed is 14 nodes in one building; the campaign engine
// asks the same questions at city scale — thousands of trials over many
// overlapping cells — which forces three properties the figure sweeps
// never needed:
//
//   - Streaming: results fold into mergeable accumulators (counters,
//     exact moments, quantile sketches) as trials complete, so resident
//     memory is O(workers), not O(trials).
//   - Sharding: the trial space splits into contiguous shards that run
//     in separate processes and MERGE BYTE-IDENTICALLY, because
//     per-trial seeds derive from the global trial index and every
//     accumulator's Merge is exactly associative and commutative.
//   - Resumability: shard state checkpoints periodically (block
//     granularity) and a resumed run equals the uninterrupted one.
package campaign

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"zigzag/internal/core"
	"zigzag/internal/experiments"
	"zigzag/internal/impair"
	"zigzag/internal/obs"
	"zigzag/internal/runner"
	"zigzag/internal/session"
)

// campaignVars holds the campaign's live progress counters on the
// default observability registry. They are registered lazily (first
// trial) so that processes that never run a campaign pay nothing and
// export nothing. Unlike the Acc reducers these are process-global and
// monotonic: they report progress across every campaign in the
// process, which is exactly what a live /metrics scrape wants.
type campaignVars struct {
	trials   *obs.Counter
	episodes *obs.Counter
}

var campaignVarsOnce = sync.OnceValue(func() *campaignVars {
	return &campaignVars{
		trials:   obs.Default.Counter("zigzag_campaign_trials_total", "Monte-Carlo trials completed"),
		episodes: obs.Default.Counter("zigzag_campaign_episodes_total", "collision episodes run"),
	}
})

// Config describes one campaign: the city topology, the traffic model,
// and the Monte-Carlo budget. The zero value is unusable; start from
// DefaultConfig. Config is part of the checkpoint fingerprint, so two
// runs merge/resume only when their configs match exactly.
type Config struct {
	// Cells is the number of APs, laid out on a line with centers
	// APSpacing·2·CellRadius apart; APSpacing < 1 overlaps adjacent
	// BSSes, which is what makes cross-cell hidden terminals possible.
	Cells int `json:"cells"`
	// CellRadius is the station placement radius around each AP.
	CellRadius float64 `json:"cell_radius"`
	// APSpacing is the AP center distance as a fraction of one cell
	// diameter (2·CellRadius).
	APSpacing float64 `json:"ap_spacing"`
	// StationsPerCell is how many stations each cell hosts.
	StationsPerCell int `json:"stations_per_cell"`
	// Churn is the per-round probability that each station re-draws its
	// position (mobility between collision episodes).
	Churn float64 `json:"churn"`
	// Rounds is how many collision episodes each trial runs on its
	// evolving topology.
	Rounds int `json:"rounds"`
	// K is the collision order: senders per episode.
	K int `json:"k"`
	// Payload is the frame payload in bytes.
	Payload int `json:"payload"`

	// PathLossExp is the path-loss exponent of the SNR model
	// snr(d) = SNREdge + 10·PathLossExp·log10(CellRadius/d), clamped to
	// [MinSNR, MaxSNR]: a station at the cell edge decodes at SNREdge.
	PathLossExp float64 `json:"path_loss_exp"`
	// SNREdge is the SNR in dB at distance CellRadius from the receiver.
	SNREdge float64 `json:"snr_edge"`
	// MinSNR/MaxSNR clamp the per-station SNR (dB).
	MinSNR float64 `json:"min_snr"`
	MaxSNR float64 `json:"max_snr"`
	// Noise is the receiver noise power handed to the channel.
	Noise float64 `json:"noise"`
	// Profile optionally runs every episode under a time-varying
	// impairment chain (internal/impair).
	Profile impair.Profile `json:"profile"`

	// Trials is the GLOBAL Monte-Carlo trial count; shards split it.
	Trials int `json:"trials"`
	// Workers bounds the in-process worker pool (0 = GOMAXPROCS).
	// Results are byte-identical at any value.
	Workers int `json:"-"`
	// BlockSize is the checkpoint/scheduling granularity in trials
	// (0 = runner.DefaultBlockSize). Part of the resume fingerprint.
	BlockSize int `json:"block_size"`
	// Seed is the campaign's base seed; per-trial streams derive from
	// (Seed, global trial index) via splitmix.
	Seed int64 `json:"seed"`
}

// DefaultConfig is a small three-cell city: overlapping BSSes, mild
// churn, pairwise collisions.
func DefaultConfig() Config {
	return Config{
		Cells:           3,
		CellRadius:      1.0,
		APSpacing:       0.7,
		StationsPerCell: 6,
		Churn:           0.1,
		Rounds:          4,
		K:               2,
		Payload:         60,
		PathLossExp:     3.0,
		SNREdge:         7.0,
		MinSNR:          4.0,
		MaxSNR:          22.0,
		Noise:           0.05,
		Trials:          64,
		Seed:            1,
	}
}

// Validate rejects configs the engine cannot run.
func (c Config) Validate() error {
	switch {
	case c.Cells <= 0 || c.StationsPerCell <= 0:
		return fmt.Errorf("campaign: need at least one cell and one station (cells=%d, stations=%d)", c.Cells, c.StationsPerCell)
	case c.K < 2:
		return fmt.Errorf("campaign: collision order k=%d, need >= 2", c.K)
	case c.Cells*c.StationsPerCell < c.K:
		return fmt.Errorf("campaign: %d stations cannot supply k=%d senders", c.Cells*c.StationsPerCell, c.K)
	case c.Rounds <= 0 || c.Trials <= 0 || c.Payload <= 0:
		return fmt.Errorf("campaign: rounds, trials and payload must be positive")
	case c.CellRadius <= 0 || c.MaxSNR < c.MinSNR:
		return fmt.Errorf("campaign: bad geometry or SNR clamp")
	}
	return nil
}

// station is one node's current position.
type station struct{ x, y float64 }

// apX returns AP i's x coordinate (APs sit on a line; y = 0).
func (c Config) apX(i int) float64 { return float64(i) * c.APSpacing * 2 * c.CellRadius }

// place draws a uniform position in cell i's disc.
func (c Config) place(rng *rand.Rand, cell int) station {
	r := c.CellRadius * math.Sqrt(rng.Float64())
	th := 2 * math.Pi * rng.Float64()
	return station{x: c.apX(cell) + r*math.Cos(th), y: r * math.Sin(th)}
}

// snrAt maps a station→receiver distance to the clamped link SNR (dB).
func (c Config) snrAt(d float64) float64 {
	// Keep the near-field finite: a station cannot get closer than 2% of
	// the cell radius.
	if min := 0.02 * c.CellRadius; d < min {
		d = min
	}
	snr := c.SNREdge + 10*c.PathLossExp*math.Log10(c.CellRadius/d)
	if snr < c.MinSNR {
		return c.MinSNR
	}
	if snr > c.MaxSNR {
		return c.MaxSNR
	}
	return snr
}

// trial runs one Monte-Carlo trial on the worker's pooled session: draw
// the city, then run Rounds collision episodes with churn between them.
// All randomness comes from the session's per-trial stream, so the
// trial is a pure function of (Config, Seed, global trial index).
func (c Config) trial(sess *session.Session, acc *Acc) {
	rng := sess.Rng
	n := c.Cells * c.StationsPerCell
	stations := make([]station, n)
	for i := range stations {
		stations[i] = c.place(rng, i/c.StationsPerCell)
	}
	snrs := make([]float64, c.K)
	picked := make([]int, 0, c.K)
	for round := 0; round < c.Rounds; round++ {
		if round > 0 && c.Churn > 0 {
			for i := range stations {
				if rng.Float64() < c.Churn {
					stations[i] = c.place(rng, i/c.StationsPerCell)
				}
			}
		}
		// The receiving AP for this episode, then k distinct senders
		// drawn uniformly from the whole city — overlapping cells mean
		// senders from different BSSes routinely land in one episode,
		// which is exactly the cross-cell hidden-terminal case.
		ap := rng.Intn(c.Cells)
		ax := c.apX(ap)
		picked = picked[:0]
		for len(picked) < c.K {
			s := rng.Intn(n)
			if !contains(picked, s) {
				picked = append(picked, s)
			}
		}
		for j, s := range picked {
			d := math.Hypot(stations[s].x-ax, stations[s].y)
			snrs[j] = c.snrAt(d)
			acc.SNR.Add(snrs[j])
		}
		ep := experiments.CollisionEpisode(sess, c.Payload, snrs, c.Noise, c.Profile)
		acc.observe(ep)
		campaignVarsOnce().episodes.Inc()
	}
	acc.Trials.Add(1)
	campaignVarsOnce().trials.Inc()
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Run executes one shard of the campaign (shard index of shards; 1,0
// for the whole campaign) and returns its accumulator. If ck is
// non-nil the shard checkpoints its state every ck.EveryBlocks blocks
// and resumes from ck.Path when a matching checkpoint exists, so an
// interrupted shard continues instead of restarting — the resumed
// result is byte-identical to an uninterrupted run.
func Run(cfg Config, shards, index int, ck *Checkpointer) (*Acc, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if shards <= 0 {
		shards, index = 1, 0
	}
	if index < 0 || index >= shards {
		return nil, fmt.Errorf("campaign: shard index %d out of range for %d shards", index, shards)
	}

	spec := runner.ReduceSpec[*session.Session, *Acc]{
		Shard:     runner.ShardRange(cfg.Trials, shards, index),
		BlockSize: cfg.BlockSize,
		Opts:      runner.Options{Workers: cfg.Workers, BaseSeed: cfg.Seed},
		Acquire:   func() *session.Session { return session.Acquire(core.DefaultConfig()) },
		Release:   session.Release,
		NewAcc:    NewAcc,
		Fold: func(sess *session.Session, acc *Acc, trial int, rng *rand.Rand) *Acc {
			sess.ResetRand(rng)
			cfg.trial(sess, acc)
			return acc
		},
		Merge: func(dst, src *Acc) *Acc { dst.Merge(src); return dst },
	}
	if ck != nil {
		if err := ck.arm(&spec, cfg, shards, index); err != nil {
			return nil, err
		}
	}
	acc := runner.Reduce(spec)
	if ck != nil && ck.Err() != nil {
		return acc, ck.Err()
	}
	return acc, nil
}

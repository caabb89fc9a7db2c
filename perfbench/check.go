package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"

	"zigzag/internal/core"
	"zigzag/internal/session"
)

// expect.json records, per workload, the output of a small fixed input
// at the tuning seed. Every run recomputes it and fails on a mismatch,
// so a change that decodes differently cannot pass as a speed-up.
//
//go:embed expect.json
var expectJSON []byte

type expectFile struct {
	// TuningSeed is the seed changes may be tuned on; HeldoutSeed is a
	// second seed no change is tuned on, on which every claim must also
	// hold.
	TuningSeed  int64               `json:"tuning_seed"`
	HeldoutSeed int64               `json:"heldout_seed"`
	Recorded    map[string]recorded `json:"recorded"`
}

// recorded is one workload's fixed-input output: delivered-frame counts
// per Via and the frame digest (AP workloads), or the episode tallies
// and the FNV-1a digest of the accumulator's Report (campaign).
type recorded struct {
	Counts map[string]int64 `json:"counts"`
	Digest string           `json:"digest"`
}

func loadExpect() (expectFile, error) {
	var e expectFile
	if err := json.Unmarshal(expectJSON, &e); err != nil {
		return e, fmt.Errorf("expect.json: %w", err)
	}
	return e, nil
}

// recordedOutput computes a workload's fixed-input output at seed.
func recordedOutput(workload string, seed int64) (recorded, error) {
	switch workload {
	case "ap-pairs", "ap-kway3":
		p := apParams{k: 2, subEpisodes: pairsSubEpisodes, minEpisodes: 2 * pairsSubEpisodes}
		if workload == "ap-kway3" {
			p = apParams{k: 3, subEpisodes: kway3SubEpisodes, minEpisodes: 3 * kway3SubEpisodes}
		}
		st, err := renderAP(p, seed, nil)
		if err != nil {
			return recorded{}, err
		}
		sess := session.Acquire(core.DefaultConfig())
		ps := runAPLoop(st, sess, loopConfig{})
		session.Release(sess)
		std, zz, capt, failed, digest := streamDigest(ps)
		return recorded{
			Counts: map[string]int64{"standard": std, "zigzag": zz, "capture": capt, "failed": failed},
			Digest: fmt.Sprintf("%#016x", digest),
		}, nil
	case "campaign-city":
		ps, err := runCity(cityConfig(seed, 16, nproc()), 2, 0)
		if err != nil {
			return recorded{}, err
		}
		h := fnv.New64a()
		h.Write([]byte(ps.acc.Report()))
		return recorded{
			Counts: map[string]int64{"episodes": ps.acc.Episodes.Value(), "failures": ps.acc.Failures.Value(), "err_bits": ps.acc.ErrBits.Value()},
			Digest: fmt.Sprintf("%#016x", h.Sum64()),
		}, nil
	}
	return recorded{}, fmt.Errorf("no recorded output for workload %q", workload)
}

// checkRecorded recomputes the workload's recorded output and compares.
func checkRecorded(res *result, workload string) {
	e, err := loadExpect()
	if err != nil {
		res.failf("%v", err)
		return
	}
	want, ok := e.Recorded[workload]
	if !ok {
		res.failf("expect.json has no recorded output for %s", workload)
		return
	}
	got, err := recordedOutput(workload, e.TuningSeed)
	if err != nil {
		res.failf("recorded check: %v", err)
		return
	}
	if got.Digest != want.Digest || len(got.Counts) != len(want.Counts) {
		res.failf("recorded check at seed %d: digest %s, expect.json %s", e.TuningSeed, got.Digest, want.Digest)
		return
	}
	for k, v := range want.Counts {
		if got.Counts[k] != v {
			res.failf("recorded check at seed %d: %s = %d, expect.json %d", e.TuningSeed, k, got.Counts[k], v)
		}
	}
}

// printExpect prints the recorded outputs for expect.json, keeping its
// seeds. Re-record only for a change that is meant to decode
// differently, and say so.
func printExpect(stdout, stderr io.Writer) int {
	e, err := loadExpect()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	e.Recorded = map[string]recorded{}
	for _, w := range []string{"ap-pairs", "ap-kway3", "campaign-city"} {
		r, err := recordedOutput(w, e.TuningSeed)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		e.Recorded[w] = r
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

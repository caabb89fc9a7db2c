package main

import (
	"encoding/json"
	"fmt"
	"math/cmplx"
	"os"
	"reflect"

	"zigzag/internal/experiments"
	"zigzag/internal/impair"
)

// The kern leg of -check guards the DSP kernel layer:
//
//  1. Identity: the trimmed harsh suite runs twice on the default
//     kernel path and must be bit-identical — the determinism canary
//     for the packed/recurrence kernels (which must depend on nothing
//     but their inputs).
//  2. Reference tolerance: one full link+interferer chain application
//     runs on the kernel path and again on its per-sample scalar
//     reference (impair.Chain.Reference), and every sample must agree
//     within hatch_tolerance. (Suite-level outputs are NOT compared
//     against the reference: the kernels' documented ≤1e-9 freedom
//     cascades through SIC's near-threshold bit decisions, so only the
//     kernel-level contract is a stable gate. The quantizer is excluded
//     here — its kernel is bit-identical by construction, but it turns
//     a 1e-9 input delta into a full LSB step when a sample straddles a
//     decision boundary.)
//  3. Calibrated cost: the full chain's per-reception cost on the
//     kernel path is normalized by the calibration kernel and compared
//     against the committed BENCH_kern.json, and the kernel path must
//     beat the reference chain by min_kern_speedup — the floor that
//     protects the vectorized layer from silently regressing back to
//     scalar cost.

// kernBenchFile mirrors the committed BENCH_kern.json layout (only the
// fields -check consumes).
type kernBenchFile struct {
	Check struct {
		ToleranceFactor float64            `json:"tolerance_factor"`
		MinKernSpeedup  float64            `json:"min_kern_speedup"`
		HatchTolerance  float64            `json:"hatch_tolerance"`
		ReferenceUnits  map[string]float64 `json:"reference_units"`
	} `json:"check"`
}

// kernCheckEmission mirrors the impair bench suite's emission size (a
// ~2000-bit BPSK packet at 2 samples/symbol).
const kernCheckEmission = 4096

// kernCheckBuf returns a deterministic unit-scale complex buffer (the
// splitmix kernel as the source, so the gate needs no test-only
// helpers).
func kernCheckBuf(n int) []complex128 {
	buf := make([]complex128, n)
	z := uint64(0x243F6A8885A308D3)
	next := func() float64 {
		z += 0x9E3779B97F4A7C15
		x := z
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		x ^= x >> 31
		return 2*float64(x>>11)/(1<<53) - 1
	}
	for i := range buf {
		buf[i] = complex(next(), next())
	}
	return buf
}

// runKernChain applies reps receptions of the chain to fresh copies of
// buf and returns the last rendered reception.
func runKernChain(c *impair.Chain, buf []complex128, reps int) []complex128 {
	work := make([]complex128, len(buf))
	c.Reset(5)
	for r := 0; r < reps; r++ {
		copy(work, buf)
		c.BeginReception()
		c.ImpairEmission(0, work, 40)
		c.ImpairFront(work)
	}
	return work
}

// runKernCheck runs the identity, reference-tolerance and cost gates.
// It returns the measured units (for -bench-out) and whether any gate
// failed.
func runKernCheck(cal float64) (map[string]float64, bool) {
	var ref kernBenchFile
	ref.Check.ToleranceFactor = 2.5
	ref.Check.MinKernSpeedup = 1.3
	ref.Check.HatchTolerance = 1e-6
	if data, err := os.ReadFile("BENCH_kern.json"); err == nil {
		if err := json.Unmarshal(data, &ref); err != nil {
			fmt.Fprintf(os.Stderr, "bench-check: BENCH_kern.json unreadable: %v\n", err)
			return nil, true
		}
	} else {
		fmt.Fprintln(os.Stderr, "bench-check: BENCH_kern.json not found; reporting kernel measurements without unit gating")
	}
	if ref.Check.ToleranceFactor <= 0 {
		ref.Check.ToleranceFactor = 2.5
	}
	if ref.Check.MinKernSpeedup <= 0 {
		ref.Check.MinKernSpeedup = 1.3
	}
	if ref.Check.HatchTolerance <= 0 {
		ref.Check.HatchTolerance = 1e-6
	}

	failed := false
	a := experiments.HarshChannelSuite(checkScale, 3)
	b := experiments.HarshChannelSuite(checkScale, 3)
	if !reflect.DeepEqual(a, b) {
		fmt.Fprintln(os.Stderr, "bench-check: kern: two identical harsh runs DIFFER — the kernel path is nondeterministic")
		failed = true
	} else {
		fmt.Println("bench-check kern      harsh replay on the kernel path (bit-identical)")
	}

	// Reference tolerance: every link model plus the interferer, no
	// quantizer (see the leg doc above).
	refProfile := impair.Profile{
		Doppler: 3e-4, RicianK: 2, MultipathDoppler: 2e-4,
		DriftRate: 5e-7, PhaseNoise: 2e-3,
		InterfDuty: 0.1, InterfAmp: 0.8,
	}
	buf := kernCheckBuf(kernCheckEmission)
	chain := refProfile.Chain()
	got := runKernChain(chain, buf, 1)
	want := runKernChain(chain.Reference(), buf, 1)
	var worst float64
	for i := range got {
		if d := cmplx.Abs(got[i] - want[i]); d > worst {
			worst = d
		}
	}
	if worst > ref.Check.HatchTolerance {
		fmt.Fprintf(os.Stderr, "bench-check: kern: kernel vs reference chain render diverged by %.3g (tolerance %.3g)\n",
			worst, ref.Check.HatchTolerance)
		failed = true
	} else {
		fmt.Printf("bench-check kern      reference agreement %.2g ≤ %.2g\n", worst, ref.Check.HatchTolerance)
	}

	// Calibrated cost of the full chain (quantizer included: this is
	// the per-reception overhead the impair benchmarks track).
	costProfile := refProfile
	costProfile.ADCBits = 10
	const reps = 600
	costChain := costProfile.Chain()
	kernDur, _ := timeSweep(func() any { return runKernChain(costChain, buf, reps) })
	naiveDur, _ := timeSweep(func() any { return runKernChain(costChain.Reference(), buf, reps) })

	units := map[string]float64{
		"impair-chain":       kernDur.Seconds() / cal,
		"impair-chain-naive": naiveDur.Seconds() / cal,
	}
	speedup := naiveDur.Seconds() / kernDur.Seconds()
	verdict := "ok"
	if speedup < ref.Check.MinKernSpeedup {
		verdict = fmt.Sprintf("KERNEL REGRESSION (speedup floor %.2fx)", ref.Check.MinKernSpeedup)
		failed = true
	}
	if refUnits, hasRef := ref.Check.ReferenceUnits["impair-chain"]; hasRef && units["impair-chain"] > refUnits*ref.Check.ToleranceFactor {
		verdict = fmt.Sprintf("PERF REGRESSION (%.1f units > %.1f × %.1f)", units["impair-chain"], refUnits, ref.Check.ToleranceFactor)
		failed = true
	}
	fmt.Printf("bench-check kern      chain %7.3fs  naive %7.3fs  kern-speedup %5.2fx  %6.1f units  %s\n",
		kernDur.Seconds(), naiveDur.Seconds(), speedup, units["impair-chain"], verdict)
	return units, failed
}

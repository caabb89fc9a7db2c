package fft

import (
	"math"
	"math/rand"
	"testing"
)

// assertIdentical demands bit-identical profiles: Prepared runs the same
// arithmetic as Correlate in the same order, so no tolerance applies.
func assertIdentical(t *testing.T, tag string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: profile length %d, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: profile[%d] = %v, want exactly %v", tag, i, got[i], want[i])
		}
	}
}

// checkPrepared correlates several references against one prepared
// signal, with and without a precomputed reference spectrum, and
// compares each profile exactly against Correlate.
func checkPrepared(t *testing.T, tag string, r *rand.Rand, m, ly int, freq float64) {
	t.Helper()
	y := randVec(r, ly)
	var pr Prepared
	pr.Prepare(y, m)
	var s Scratch
	var dst []complex128
	for k := 0; k < 3; k++ {
		ref := randVec(r, m)
		want := Correlate(nil, y, ref, freq, nil)
		dst = pr.Correlate(dst, ref, freq, nil, &s)
		assertIdentical(t, tag+"/scratch-spectrum", dst, want)
		if n := pr.PlanSize(); n > 0 {
			spec := RefSpectrum(nil, ref, freq, n, nil)
			assertIdentical(t, tag+"/given-spectrum", pr.Correlate(nil, ref, freq, spec, nil), want)
		}
	}
}

// TestPreparedMatchesCorrelateExactly covers the shapes the engine
// distinguishes: several plan sizes (including odd and even log₂ and
// the fused 8-point tail), a ragged last block, a buffer shorter than
// the uncapped plan (single capped block), and both sides of the
// naive/FFT crossover in reference length and in output count.
func TestPreparedMatchesCorrelateExactly(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	cases := []struct {
		name  string
		m, ly int
	}{
		{"preamble", 64, 4000},
		{"window", 512, 9000},
		{"odd-ref", 301, 5000},
		{"long-ref", 1500, 20000},
		{"ragged-last-block", 512, 512 + 3*(2048-511) + 17},
		{"exact-blocks", 512, 511 + 4*(2048-511)},
		{"shorter-than-plan", 512, 900},
		{"single-output-fft", CrossoverRefLen, CrossoverRefLen + CrossoverMinOutputs - 1},
		{"ref-below-crossover", CrossoverRefLen - 1, 3000},
		{"ref-at-crossover", CrossoverRefLen, 3000},
		{"outputs-below-crossover", 200, 200 + CrossoverMinOutputs - 2},
		{"outputs-at-crossover", 200, 200 + CrossoverMinOutputs - 1},
		{"ref-equals-buffer", 300, 300},
	}
	for _, c := range cases {
		for _, f := range []float64{0, 0.0037} {
			checkPrepared(t, c.name, r, c.m, c.ly, f)
		}
	}
}

// TestPreparedIgnoresMismatchedSpectrum checks that a spectrum computed
// for another plan size falls back to the reference transform.
func TestPreparedIgnoresMismatchedSpectrum(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	y := randVec(r, 900) // capped plan: 1024, not the uncapped 2048
	ref := randVec(r, 512)
	var pr Prepared
	pr.Prepare(y, len(ref))
	if n := pr.PlanSize(); n != 1024 {
		t.Fatalf("plan size %d, want the capped 1024", n)
	}
	wide := RefSpectrum(nil, ref, 0, 2048, nil)
	assertIdentical(t, "mismatched", pr.Correlate(nil, ref, 0, wide, nil), Correlate(nil, y, ref, 0, nil))
}

// TestPreparedReprepareReusesStorage checks that preparing a new signal
// discards the old spectra, and that steady-state prepared correlation
// allocates nothing.
func TestPreparedReprepareReusesStorage(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	ref := randVec(r, 512)
	var pr Prepared
	var s Scratch
	var dst []complex128
	for i := 0; i < 3; i++ {
		y := randVec(r, 8000+i*500)
		pr.Prepare(y, len(ref))
		dst = pr.Correlate(dst, ref, 0, nil, &s)
		assertIdentical(t, "reprepared", dst, Correlate(nil, y, ref, 0, nil))
	}
	spec := RefSpectrum(nil, ref, 0, pr.PlanSize(), nil)
	if allocs := testing.AllocsPerRun(20, func() {
		dst = pr.Correlate(dst, ref, 0, spec, &s)
	}); allocs != 0 {
		t.Errorf("steady-state prepared correlation allocates %v times per run, want 0", allocs)
	}
}

// FuzzCorrelatePrepared drives arbitrary shapes and frequency steps
// through a prepared signal and demands bit-identity
// with Correlate for two references in a row. The committed corpus
// under testdata/fuzz covers the crossover edges and ragged blocks.
func FuzzCorrelatePrepared(f *testing.F) {
	f.Add(int64(1), uint16(64), uint16(4000), 0.0)
	f.Add(int64(2), uint16(512), uint16(900), 0.01)
	f.Add(int64(3), uint16(CrossoverRefLen), uint16(CrossoverRefLen+CrossoverMinOutputs-1), -0.2)
	f.Add(int64(4), uint16(512), uint16(7000), 0.003)
	f.Fuzz(func(t *testing.T, seed int64, m, ly uint16, freq float64) {
		if m == 0 || m > 2048 || ly < m || ly > 20000 || math.IsNaN(freq) || math.IsInf(freq, 0) {
			t.Skip()
		}
		r := rand.New(rand.NewSource(seed))
		y := randVec(r, int(ly))
		var pr Prepared
		pr.Prepare(y, int(m))
		for k := 0; k < 2; k++ {
			ref := randVec(r, int(m))
			want := Correlate(nil, y, ref, freq, nil)
			assertIdentical(t, "fuzz", pr.Correlate(nil, ref, freq, nil, nil), want)
			if n := pr.PlanSize(); n > 0 {
				assertIdentical(t, "fuzz-spectrum", pr.Correlate(nil, ref, freq, RefSpectrum(nil, ref, freq, n, nil), nil), want)
			}
		}
	})
}

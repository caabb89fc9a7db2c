package dsp

import (
	"cmp"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
)

// bpskRef builds a ±1 pseudo-random reference waveform.
func bpskRef(r *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		if r.Intn(2) == 0 {
			out[i] = -1
		} else {
			out[i] = 1
		}
	}
	return out
}

func TestCorrelateProfileFindsEmbeddedPreamble(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	ref := bpskRef(r, 64)
	y := randVec(r, 512) // background noise, unit power
	const pos = 200
	AddAt(y, pos, Scale(nil, 2, ref)) // strong embedded copy
	prof := CorrelateProfile(y, ref, 0)
	i, _ := MaxAbs(prof)
	if i != pos {
		t.Fatalf("peak at %d, want %d", i, pos)
	}
	// Peak magnitude should approximate |H|·Σ|s|² = 2·64 = 128.
	if m := cmplx.Abs(prof[pos]); math.Abs(m-128) > 25 {
		t.Fatalf("peak magnitude %v, want ≈128", m)
	}
}

func TestCorrelationDestroyedByUncompensatedOffset(t *testing.T) {
	// §4.2.1: the frequency offset can destroy the correlation unless the
	// AP compensates for it. With δf·T large enough that the phase winds
	// through several turns across the preamble, the uncompensated peak
	// collapses while the compensated one survives.
	r := rand.New(rand.NewSource(43))
	ref := bpskRef(r, 128)
	const step = 0.15 // radians/sample; 128·0.15 ≈ 3 turns
	y := make([]complex128, 400)
	AddAt(y, 100, Rotate(nil, ref, 0.4, step))
	plain := CorrelateProfile(y, ref, 0)
	comp := CorrelateProfile(y, ref, step)
	if pm := cmplx.Abs(plain[100]); pm > 30 {
		t.Fatalf("uncompensated peak %v should have collapsed", pm)
	}
	if cm := cmplx.Abs(comp[100]); math.Abs(cm-128) > 1e-6 {
		t.Fatalf("compensated peak %v, want 128", cm)
	}
}

func TestCorrelateAtMatchesProfile(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	ref := bpskRef(r, 32)
	y := randVec(r, 128)
	prof := CorrelateProfile(y, ref, 0.01)
	for _, d := range []int{0, 10, 50, 96} {
		if !approxC(CorrelateAt(y, ref, d, 0.01), prof[d], 1e-9) {
			t.Fatalf("CorrelateAt(%d) disagrees with profile", d)
		}
	}
	if CorrelateAt(y, ref, -1, 0) != 0 || CorrelateAt(y, ref, 1000, 0) != 0 {
		t.Fatal("out-of-range CorrelateAt should be 0")
	}
}

func TestCorrelateAtMatchesProfileLongRef(t *testing.T) {
	// Regression: CorrelateAt used to skip the periodic rotator
	// renormalization that CorrelateProfile applies every 1024 samples,
	// so the two diverged on references much longer than the
	// renormalization period. With the shared discipline they are
	// bit-identical (same reference construction, same summation order).
	r := rand.New(rand.NewSource(48))
	ref := bpskRef(r, 5000) // ≫ 1024: crosses the renormalization 4 times
	y := randVec(r, 6000)
	const step = 0.21 // strong offset so rotator drift would be visible
	prof := CorrelateProfile(y, ref, step)
	for _, d := range []int{0, 1, 500, 1000} {
		got, want := CorrelateAt(y, ref, d, step), prof[d]
		if !approxC(got, want, 1e-12) {
			t.Fatalf("CorrelateAt(%d) = %v, profile has %v", d, got, want)
		}
	}
}

func TestCorrelateDegenerateInputs(t *testing.T) {
	if CorrelateProfile(nil, []complex128{1}, 0) != nil {
		t.Fatal("short y should give nil profile")
	}
	if CorrelateProfile([]complex128{1, 2}, nil, 0) != nil {
		t.Fatal("empty ref should give nil profile")
	}
}

func TestNormalizedCorrelation(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	a := randVec(r, 256)
	if c := NormalizedCorrelation(a, a); math.Abs(c-1) > 1e-12 {
		t.Fatalf("self correlation = %v, want 1", c)
	}
	// Scaled and rotated copies still correlate perfectly.
	b := Scale(nil, 3*cmplx.Exp(0.7i), a)
	if c := NormalizedCorrelation(a, b); math.Abs(c-1) > 1e-12 {
		t.Fatalf("scaled correlation = %v, want 1", c)
	}
	// Independent vectors: near zero (O(1/√n)).
	c := NormalizedCorrelation(a, randVec(r, 256))
	if c > 0.25 {
		t.Fatalf("independent correlation = %v, want ≈0", c)
	}
	if NormalizedCorrelation(nil, a) != 0 {
		t.Fatal("empty input should give 0")
	}
	if NormalizedCorrelation(make([]complex128, 4), make([]complex128, 4)) != 0 {
		t.Fatal("all-zero input should give 0")
	}
}

func TestPeakDetectorThresholding(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	ref := bpskRef(r, 64)
	refEnergy := Energy(ref) // 64
	y := make([]complex128, 600)
	for i := range y {
		y[i] = complex(0.1*r.NormFloat64(), 0.1*r.NormFloat64())
	}
	AddAt(y, 50, ref)
	AddAt(y, 300, ref)
	prof := CorrelateProfile(y, ref, 0)
	pd := PeakDetector{Beta: 0.65, RefAmp: 1, MinSpacing: 32}
	peaks := pd.Find(prof, refEnergy)
	if len(peaks) != 2 {
		t.Fatalf("found %d peaks, want 2: %+v", len(peaks), peaks)
	}
	if peaks[0].Pos != 50 || peaks[1].Pos != 300 {
		t.Fatalf("peaks at %d,%d, want 50,300", peaks[0].Pos, peaks[1].Pos)
	}
	// Raising β above 1 must reject everything (expected peak = refEnergy).
	none := PeakDetector{Beta: 1.5, RefAmp: 1}.Find(prof, refEnergy)
	if len(none) != 0 {
		t.Fatalf("β=1.5 found %d peaks, want 0", len(none))
	}
}

func TestPeakDetectorSubsampleRefinement(t *testing.T) {
	// A preamble delayed by a fractional amount produces a correlation
	// peak whose parabolic refinement recovers the fraction. This needs
	// the realistic 2-samples-per-symbol waveform (the paper's GNU Radio
	// config, §5.1c): its triangular autocorrelation makes the peak wide
	// enough to interpolate, unlike a white 1-sample-per-chip sequence.
	r := rand.New(rand.NewSource(47))
	chips := bpskRef(r, 32)
	ref := make([]complex128, 0, 64)
	for _, c := range chips {
		ref = append(ref, c, c)
	}
	ip := Interpolator{Taps: 8}
	const mu = 0.3
	shifted := ip.Shift(nil, ref, -mu) // signal arrives mu late
	y := make([]complex128, 300)
	AddAt(y, 100, shifted)
	prof := CorrelateProfile(y, ref, 0)
	peaks := PeakDetector{Beta: 0.5, RefAmp: 1, MinSpacing: 16}.Find(prof, Energy(ref))
	if len(peaks) == 0 {
		t.Fatal("no peak found")
	}
	p := peaks[0]
	if p.Pos != 100 {
		t.Fatalf("peak at %d, want 100", p.Pos)
	}
	// BPSK is not band-limited, so the parabolic estimate is coarse; it
	// must at least have the right sign and rough size.
	if p.Frac < 0.1 || p.Frac > 0.5 {
		t.Fatalf("fractional refinement %v, want ≈0.3", p.Frac)
	}
}

func TestPeakDetectorMinSpacingChain(t *testing.T) {
	// Regression for the replacement path: three spikes 8 apart with
	// rising magnitudes and MinSpacing 10. The old code let each spike
	// displace the previous survivor in place, so the first spike —
	// legitimately 16 from the final winner — was lost and only one peak
	// came back. Magnitude-greedy suppression keeps {100, 116}.
	profile := make([]complex128, 200)
	profile[100] = 6
	profile[108] = 7
	profile[116] = 9
	pd := PeakDetector{Beta: 0.5, RefAmp: 1, MinSpacing: 10}
	peaks := pd.Find(profile, 2) // threshold 1: all three are candidates
	if len(peaks) != 2 || peaks[0].Pos != 100 || peaks[1].Pos != 116 {
		t.Fatalf("peaks = %+v, want positions 100 and 116", peaks)
	}
	for i := 1; i < len(peaks); i++ {
		if d := peaks[i].Pos - peaks[i-1].Pos; d < pd.MinSpacing {
			t.Fatalf("peaks %d and %d only %d apart (MinSpacing %d)", i-1, i, d, pd.MinSpacing)
		}
	}
	// The strongest of a close cluster still wins: drop the far spike
	// and the middle one must lose to its bigger neighbour.
	profile[100] = 0
	peaks = pd.Find(profile, 2)
	if len(peaks) != 1 || peaks[0].Pos != 116 {
		t.Fatalf("peaks = %+v, want the single strongest at 116", peaks)
	}
}

func TestPeakDetectorDefaults(t *testing.T) {
	pd := PeakDetector{}
	if thr := pd.Threshold(100); math.Abs(thr-DefaultBeta*100) > 1e-12 {
		t.Fatalf("default threshold = %v", thr)
	}
}

// findExact is the peak search without the squared-magnitude gate: the
// exact magnitude of every sample decides. On profiles with finite
// magnitudes FindInto must reproduce it bit for bit.
func findExact(pd PeakDetector, profile []complex128, refEnergy float64) []Peak {
	thr := pd.Threshold(refEnergy)
	minSp := max(pd.MinSpacing, 1)
	var cands []Peak
	for i := range profile {
		m := cmplx.Abs(profile[i])
		if m <= thr {
			continue
		}
		if i > 0 && cmplx.Abs(profile[i-1]) > m {
			continue
		}
		if i < len(profile)-1 && cmplx.Abs(profile[i+1]) >= m {
			continue
		}
		cands = append(cands, Peak{Pos: i, Mag: m, Value: profile[i], Frac: parabolicPeak(profile, i)})
	}
	slices.SortFunc(cands, func(a, b Peak) int {
		return cmp.Or(cmp.Compare(b.Mag, a.Mag), cmp.Compare(a.Pos, b.Pos))
	})
	var keep []Peak
	for _, c := range cands {
		if !slices.ContainsFunc(keep, func(k Peak) bool { return c.Pos-k.Pos < minSp && k.Pos-c.Pos < minSp }) {
			keep = append(keep, c)
		}
	}
	slices.SortFunc(keep, func(a, b Peak) int { return cmp.Compare(a.Pos, b.Pos) })
	return keep
}

func samePeaks(a, b []Peak) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Pos != y.Pos || math.Float64bits(x.Mag) != math.Float64bits(y.Mag) ||
			math.Float64bits(x.Frac) != math.Float64bits(y.Frac) ||
			math.Float64bits(real(x.Value)) != math.Float64bits(real(y.Value)) ||
			math.Float64bits(imag(x.Value)) != math.Float64bits(imag(y.Value)) {
			return false
		}
	}
	return true
}

// TestFindIntoGateMatchesExact pins the squared-magnitude gate: every
// peak equals the exact search's, bit for bit, including profiles whose
// samples sit within a few ulps of the threshold, profiles at magnitude
// scales where squaring underflows or overflows, and thresholds the
// gate must leave to the exact path (≤ 0, NaN, +Inf).
func TestFindIntoGateMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	thrs := []float64{1, 0.37, 0, -1, math.Inf(1), math.NaN(), 1e-160, 1e-154, 1e154, 1e160, 1e-300, 1e300}
	for _, scale := range []float64{1, 1e-160, 1e-155, 1e-150, 1e150, 1e154, 1e160, 1e300} {
		for _, refE := range thrs {
			pd := PeakDetector{Beta: 1, RefAmp: 1, MinSpacing: 3}
			thr := pd.Threshold(refE * scale)
			prof := make([]complex128, 400)
			for i := range prof {
				prof[i] = complex(r.NormFloat64(), r.NormFloat64()) * complex(scale, 0)
				if i%7 == 0 && thr > 0 && !math.IsInf(thr, 0) {
					// Put magnitudes right at the threshold: a few ulps
					// either side, along an arbitrary direction.
					ph := r.Float64() * 2 * math.Pi
					m := thr * (1 + float64(r.Intn(9)-4)*0x1p-52)
					prof[i] = cmplx.Rect(m, ph)
				}
			}
			got := pd.FindInto(nil, prof, refE*scale)
			want := findExact(pd, prof, refE*scale)
			if !samePeaks(got, want) {
				t.Fatalf("scale %g thr %g: gated search found %d peaks, exact %d", scale, thr, len(got), len(want))
			}
		}
	}
}

// TestFindIntoNonFiniteRuns pins that non-finite samples are never
// peaks: a profile with NaN/±Inf runs yields exactly the peaks of the
// same profile with the runs zeroed, each with a finite refinement. A
// 40-sample NaN run used to report a NaN "peak" every MinSpacing.
func TestFindIntoNonFiniteRuns(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	base := make([]complex128, 300)
	r := rand.New(rand.NewSource(3))
	for i := range base {
		base[i] = complex(0.1*r.NormFloat64(), 0.1*r.NormFloat64())
	}
	for _, p := range []int{30, 100, 180, 250} {
		base[p-1], base[p], base[p+1] = 3, 5, 2
	}
	cases := []struct {
		name   string
		lo, hi int
		v      complex128
	}{
		{"nan run", 40, 80, complex(nan, 0)},
		{"nan imag", 40, 80, complex(0, nan)},
		{"+inf run", 40, 80, complex(inf, 0)},
		{"-inf run", 40, 80, complex(0, -inf)},
		{"nan next to peak", 101, 110, complex(nan, nan)},
		{"inf next to peak", 90, 100, complex(inf, 1)},
		{"inf inside peak", 180, 181, complex(-inf, 0)},
		{"overflowing magnitude", 200, 205, complex(1.5e308, 1.5e308)},
	}
	pd := PeakDetector{Beta: 1, RefAmp: 1, MinSpacing: 8}
	for _, tc := range cases {
		prof := append([]complex128(nil), base...)
		zeroed := append([]complex128(nil), base...)
		for i := tc.lo; i < tc.hi; i++ {
			prof[i], zeroed[i] = tc.v, 0
		}
		got := pd.FindInto(nil, prof, 1)
		want := pd.FindInto(nil, zeroed, 1)
		if !samePeaks(got, want) {
			t.Errorf("%s: peaks %+v, want %+v", tc.name, got, want)
		}
		for _, p := range got {
			if math.IsNaN(p.Mag) || math.IsInf(p.Mag, 0) || math.IsNaN(p.Frac) {
				t.Errorf("%s: non-finite peak %+v", tc.name, p)
			}
		}
	}
}

// BenchmarkFindInto times the peak search over a detection-sized
// profile: mostly sub-threshold noise with a few preamble spikes.
func BenchmarkFindInto(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	prof := make([]complex128, 4096)
	for i := range prof {
		prof[i] = complex(4*r.NormFloat64(), 4*r.NormFloat64())
	}
	for _, p := range []int{500, 1800, 3100} {
		prof[p] = 60
	}
	pd := PeakDetector{RefAmp: 1, MinSpacing: 32}
	var dst []Peak
	b.ReportAllocs()
	for b.Loop() {
		dst = pd.FindInto(dst, prof, 64)
	}
}

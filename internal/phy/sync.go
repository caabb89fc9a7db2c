package phy

import (
	"math"
	"math/cmplx"

	"zigzag/internal/dsp"
	"zigzag/internal/dsp/fft"
)

// Sync describes one detected packet start within a received buffer: the
// output of the preamble correlator of §4.2.1 plus the channel estimate
// of §4.2.4a.
type Sync struct {
	// Start is the fractional sample index at which the packet's first
	// preamble chip arrives (integer peak position plus the parabolic
	// sub-sample refinement, which absorbs the sampling offset μ).
	Start float64

	// RefPos is the integer sample position used as the phase reference
	// for the rotation model below.
	RefPos int

	// H is the complex channel estimate Ĥ obtained from the correlation
	// peak: Γ'(Δ) / Σ|s[k]|² (§4.2.4a). Its phase is referenced to
	// RefPos.
	H complex128

	// Freq is the carrier frequency offset estimate in radians per
	// sample used during detection (the AP's coarse per-client estimate,
	// §4.2.1/§4.2.4b).
	Freq float64

	// Mag is the raw correlation peak magnitude, kept for diagnostics
	// and threshold experiments.
	Mag float64
}

// Theta returns the carrier phase model at sample position n:
// angle(Ĥ) + Freq·(n − RefPos). Dividing a received sample by
// e^{jTheta(n)}·|Ĥ| yields the transmitted chip estimate.
func (s Sync) Theta(n float64) float64 {
	return cmplx.Phase(s.H) + s.Freq*(n-float64(s.RefPos))
}

// Synchronizer runs preamble detection over received buffers.
//
// Correlation profiles are computed by the internal/dsp/fft engine
// (overlap-save above the crossover length, the naive kernel below),
// with the working buffers owned by the Synchronizer and reused across
// calls so steady-state detection allocates nothing per buffer. A
// Synchronizer must therefore not be shared by concurrent goroutines;
// the Monte-Carlo harnesses construct one per trial, and the online
// receiver gives its concurrent store-match leg a Synchronizer of its
// own.
//
// Detection runs on a prepared buffer (fft.Prepared): Prepare
// transforms a reception once, and each DetectPrepared call correlates
// it against the preamble at one client's frequency offset, so a
// detection pass over every client costs one forward transform of the
// reception instead of one per client. The Γ'(Δ)-rotated preamble
// spectrum of each frequency offset and plan size is cached on the
// Synchronizer, so a client's reference is transformed once, not once
// per reception; a new offset simply misses the cache. Profiles are
// bit-identical to fft.Correlate's, kernel dispatch included. A
// prepared buffer belongs to one detection pass: the next Prepare (or
// Detect) replaces it, and the caller must not change the buffer while
// it is prepared.
type Synchronizer struct {
	cfg     Config
	wave    []complex128 // preamble chip waveform
	energy  float64      // Σ|s[k]|²
	corr    fft.Scratch  // correlation engine working storage
	prep    fft.Prepared // the buffer of the current detection pass
	refs    []refSpec    // cached preamble spectra per (freq, plan size)
	prof    []complex128 // reusable profile buffer (Detect only)
	peakBuf []dsp.Peak   // reusable peak list (Detect only)
	syncBuf []Sync       // reusable sync list (Detect only)
}

// refSpec is one cached preamble spectrum: fft.RefSpectrum of the
// preamble pre-rotated for freq, at plan size n.
type refSpec struct {
	freq float64
	n    int
	spec []complex128
}

// maxRefSpecs bounds the spectrum cache. A receiver needs one entry per
// client and plan size; past the bound the cache starts over, reusing
// its entries' storage.
const maxRefSpecs = 32

// NewSynchronizer builds a synchronizer for the configuration.
func NewSynchronizer(cfg Config) *Synchronizer {
	w := cfg.PreambleWave()
	return &Synchronizer{cfg: cfg, wave: w, energy: dsp.Energy(w)}
}

// PreambleEnergy returns Σ|s[k]|² of the reference waveform.
func (sy *Synchronizer) PreambleEnergy() float64 { return sy.energy }

// PreambleSamples returns the preamble length in samples.
func (sy *Synchronizer) PreambleSamples() []complex128 { return sy.wave }

// Detect finds every preamble occurrence in rx for a sender with the
// given coarse frequency offset (radians/sample), using the threshold
// rule of §5.3a with acceptance factor beta (0 means the default 0.65)
// against a coarse amplitude estimate refAmp of that sender (0 means 1).
//
// The returned syncs are sorted by position. A spike in the middle of a
// reception is exactly the paper's collision indicator (Fig 4-2).
//
// The returned slice is the synchronizer's reusable scratch, valid
// until the next Detect/DetectFor/DetectPrepared on this synchronizer;
// callers that retain syncs across detections copy the values out (Sync
// is a plain value type). Detect is Prepare(rx) followed by one
// correlation, so it also ends any detection pass in progress.
func (sy *Synchronizer) Detect(rx []complex128, freq, beta, refAmp float64) []Sync {
	sy.Prepare(rx)
	return sy.detect(freq, beta, refAmp)
}

// Prepare starts a detection pass over rx: the DetectPrepared calls
// that follow all correlate against rx, sharing its forward transform.
func (sy *Synchronizer) Prepare(rx []complex128) {
	sy.prep.Prepare(rx, len(sy.wave))
}

// DetectPrepared is DetectFor on the buffer of the last Prepare: every
// call of a pass reuses that buffer's forward transform and the cached
// preamble spectrum for freq, with bit-identical results. The returned
// slice is the same reusable scratch as Detect's.
func (sy *Synchronizer) DetectPrepared(freq, beta, refAmp float64) []Sync {
	return stampFreq(sy.detect(freq, beta, refAmp), freq)
}

// detect correlates the prepared buffer against the preamble at freq
// and thresholds the profile into syncs (without Freq stamped).
func (sy *Synchronizer) detect(freq, beta, refAmp float64) []Sync {
	sy.prof = sy.prep.Correlate(sy.prof, sy.wave, freq, sy.refSpectrum(freq), &sy.corr)
	pd := dsp.PeakDetector{Beta: beta, RefAmp: refAmp, MinSpacing: len(sy.wave) / 2}
	sy.peakBuf = pd.FindInto(sy.peakBuf, sy.prof, sy.energy)
	syncs := sy.syncBuf[:0]
	for _, p := range sy.peakBuf {
		syncs = append(syncs, sy.syncFromPeak(p))
	}
	sy.syncBuf = syncs
	return syncs
}

// refSpectrum returns the cached preamble spectrum for freq at the
// prepared buffer's plan size, building it on a miss, or nil when that
// buffer correlates on the naive kernel.
func (sy *Synchronizer) refSpectrum(freq float64) []complex128 {
	n := sy.prep.PlanSize()
	if n == 0 {
		return nil
	}
	bits := math.Float64bits(freq)
	for i := range sy.refs {
		if r := &sy.refs[i]; r.n == n && math.Float64bits(r.freq) == bits {
			return r.spec
		}
	}
	if len(sy.refs) == maxRefSpecs {
		sy.refs = sy.refs[:0]
	}
	i := len(sy.refs)
	if i < cap(sy.refs) {
		sy.refs = sy.refs[:i+1] // reuse the entry's spectrum storage
	} else {
		sy.refs = append(sy.refs, refSpec{})
	}
	r := &sy.refs[i]
	r.freq, r.n = freq, n
	r.spec = fft.RefSpectrum(r.spec, sy.wave, freq, n, &sy.corr)
	return r.spec
}

// Profile exposes the raw correlation profile for a given coarse
// frequency offset; the Fig 4-2 experiment plots it directly. The
// returned slice is freshly allocated (unlike Detect's internal buffer)
// and remains valid across further Synchronizer calls.
func (sy *Synchronizer) Profile(rx []complex128, freq float64) []complex128 {
	return fft.Correlate(nil, rx, sy.wave, freq, &sy.corr)
}

// Measure re-estimates the sync at a known approximate position (±slack
// samples) — used when ZigZag refines a packet's channel estimate from
// an interference-free residual (§4.2.4a) or needs Ĥ at a start position
// it already knows from collision matching.
func (sy *Synchronizer) Measure(rx []complex128, approxStart, slack int, freq float64) (Sync, bool) {
	lo := approxStart - slack
	if lo < 0 {
		lo = 0
	}
	hi := approxStart + slack
	if hi > len(rx)-len(sy.wave) {
		hi = len(rx) - len(sy.wave)
	}
	if hi < lo {
		return Sync{}, false
	}
	best := dsp.Peak{Pos: -1}
	for d := lo; d <= hi; d++ {
		v := dsp.CorrelateAt(rx, sy.wave, d, freq)
		if m := cmplx.Abs(v); m > best.Mag {
			best = dsp.Peak{Pos: d, Mag: m, Value: v}
		}
	}
	if best.Pos < 0 {
		return Sync{}, false
	}
	// Parabolic refinement around the best integer position.
	vm := cmplx.Abs(dsp.CorrelateAt(rx, sy.wave, best.Pos-1, freq))
	vp := cmplx.Abs(dsp.CorrelateAt(rx, sy.wave, best.Pos+1, freq))
	den := vm - 2*best.Mag + vp
	if den != 0 {
		frac := 0.5 * (vm - vp) / den
		if frac > 0.5 {
			frac = 0.5
		} else if frac < -0.5 {
			frac = -0.5
		}
		best.Frac = frac
	}
	s := sy.syncFromPeak(best)
	s.Freq = freq
	return s, true
}

func (sy *Synchronizer) syncFromPeak(p dsp.Peak) Sync {
	return Sync{
		Start:  float64(p.Pos) + p.Frac,
		RefPos: p.Pos,
		H:      p.Value / complex(sy.energy, 0),
		Mag:    p.Mag,
	}
}

// DetectFor runs Detect and stamps the syncs with the frequency offset
// used, which downstream decoding needs.
func (sy *Synchronizer) DetectFor(rx []complex128, freq, beta, refAmp float64) []Sync {
	return stampFreq(sy.Detect(rx, freq, beta, refAmp), freq)
}

func stampFreq(syncs []Sync, freq float64) []Sync {
	for i := range syncs {
		syncs[i].Freq = freq
	}
	return syncs
}

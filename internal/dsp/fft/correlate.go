package fft

import (
	"math/bits"
	"math/cmplx"
	"sync"

	"zigzag/internal/dsp"
)

// Crossover thresholds for the naive-vs-FFT dispatch in Correlate. The
// FFT engine amortizes two size-n transforms over n−M+1 outputs per
// block plus a once-per-call reference transform, so it loses to the
// naive kernel when the reference is short (few multiplies per output
// anyway) or the profile is short (setup never amortizes). The defaults
// were chosen from BenchmarkCrossover in this package on amd64; they
// put the 64-sample preamble detector and the 512-sample LocatePacket
// window on the FFT path for realistic buffers while keeping tiny
// unit-test correlations on the exact naive kernel.
const (
	// CrossoverRefLen is the minimum reference length for the FFT path.
	CrossoverRefLen = 48
	// CrossoverMinOutputs is the minimum profile length for the FFT path.
	CrossoverMinOutputs = 96
)

// Scratch holds the reusable working storage of the correlation engine:
// the conjugated pre-rotated reference, its spectrum, and one
// overlap-save block. A Scratch grows to the plan size of the largest
// correlation it has served and is then allocation-free. The zero value
// is ready to use. A Scratch must not be used from multiple goroutines
// at once.
type Scratch struct {
	cref  []complex128 // conjugated, frequency-pre-rotated reference
	spec  []complex128 // reference spectrum (bit-reversed order, 1/n folded in)
	block []complex128 // overlap-save block
}

func (s *Scratch) ensure(n int) {
	if cap(s.spec) < n {
		s.spec = make([]complex128, n)
		s.block = make([]complex128, n)
	}
	s.spec = s.spec[:n]
	s.block = s.block[:n]
}

// scratchPools pools Scratches per plan size for callers that do not
// thread their own (e.g. one-shot LocatePacket calls), so even those
// reach steady state without per-call allocation.
var scratchPools sync.Map // int → *sync.Pool

func getScratch(n int) *Scratch {
	pi, ok := scratchPools.Load(n)
	if !ok {
		pi, _ = scratchPools.LoadOrStore(n, &sync.Pool{New: func() any { return new(Scratch) }})
	}
	s := pi.(*sync.Pool).Get().(*Scratch)
	s.ensure(n)
	return s
}

func putScratch(n int, s *Scratch) {
	if pi, ok := scratchPools.Load(n); ok {
		pi.(*sync.Pool).Put(s)
	}
}

// Correlate computes dsp.CorrelateProfile(y, ref, freqStep), writing
// into dst (reused when capacity allows), choosing between the naive
// sliding kernel and the FFT overlap-save engine by the crossover
// heuristic above. s carries the working storage across calls and may
// be nil, in which case a pooled Scratch is used for the FFT path.
//
// The two kernels agree to rounding error (|Δ| ≲ 1e−12 of the profile
// scale — the reference pre-rotation is shared code, only the summation
// order differs), but not bit-exactly; results are still deterministic
// for fixed inputs, kernel choice included.
func Correlate(dst, y, ref []complex128, freqStep float64, s *Scratch) []complex128 {
	m := len(ref)
	if m == 0 || len(y) < m {
		return nil
	}
	if PlanSize(m, len(y)) == 0 {
		return correlateNaive(dst, y, ref, freqStep, s)
	}
	return correlateFFT(dst, y, ref, freqStep, s)
}

// PlanSize returns the FFT block size Correlate uses for a reference of
// length m over a buffer of length ly, or 0 when it takes the naive
// kernel (below the crossover).
func PlanSize(m, ly int) int {
	if m <= 0 || ly < m || m < CrossoverRefLen || ly-m+1 < CrossoverMinOutputs {
		return 0
	}
	return planSize(m, ly)
}

func correlateNaive(dst, y, ref []complex128, freqStep float64, s *Scratch) []complex128 {
	if s == nil {
		return dsp.CorrelateWithRef(dst, y, dsp.ConjRotatedRef(nil, ref, freqStep))
	}
	s.cref = dsp.ConjRotatedRef(s.cref, ref, freqStep)
	return dsp.CorrelateWithRef(dst, y, s.cref)
}

// CorrelateProfileFFT computes dsp.CorrelateProfile(y, ref, freqStep)
// by overlap-save frequency-domain correlation, writing into dst
// (reused when capacity allows). It always takes the FFT path
// regardless of the crossover heuristic. s may be nil, in which case a
// pooled Scratch is used.
func CorrelateProfileFFT(dst, y, ref []complex128, freqStep float64, s *Scratch) []complex128 {
	return correlateFFT(dst, y, ref, freqStep, s)
}

// correlateFFT is the overlap-save engine. The circular correlation of
// one block b against the conjugated reference c is
//
//	IFFT( conj(FFT(conj(c))) ⊙ FFT(b) )[d] = Σ_k c[k]·b[(d+k) mod n],
//
// which equals the linear correlation Σ_k c[k]·y[base+d+k] for
// d ∈ [0, n−M]; blocks therefore advance by step = n−M+1 and each
// contributes step outputs. The 1/n of the inverse transform and the
// conjugation are folded into the reference spectrum once per call, and
// both transforms run permutation-free (bit-reversed spectra cancel in
// the pointwise product). A one-off correlation transforms each block
// as it goes; a Prepared signal keeps the block transforms for reuse.
func correlateFFT(dst, y, ref []complex128, freqStep float64, s *Scratch) []complex128 {
	m := len(ref)
	if m == 0 || len(y) < m {
		return nil
	}
	n := planSize(m, len(y))
	if s == nil {
		s = getScratch(n)
		defer putScratch(n, s)
	} else {
		s.ensure(n)
	}
	s.spec = refSpectrum(s.spec, ref, freqStep, n, s)
	return overlapSave(dst, y, m, PlanFor(n), s.spec, nil, s.block)
}

// RefSpectrum returns the reference spectrum the FFT engine multiplies
// against for plan size n (see PlanSize): the conjugated, frequency
// pre-rotated reference, transformed, conjugated again and scaled by
// 1/n. dst is reused when its capacity allows; s supplies the
// pre-rotation buffer and may be nil. Handing the result to
// Prepared.Correlate saves the reference transform on every
// correlation against that reference.
func RefSpectrum(dst, ref []complex128, freqStep float64, n int, s *Scratch) []complex128 {
	if s == nil {
		s = new(Scratch)
	}
	return refSpectrum(dst, ref, freqStep, n, s)
}

func refSpectrum(dst, ref []complex128, freqStep float64, n int, s *Scratch) []complex128 {
	m := len(ref)
	spec := ensure(dst, n)
	s.cref = dsp.ConjRotatedRef(s.cref, ref, freqStep)
	for k, v := range s.cref {
		spec[k] = cmplx.Conj(v)
	}
	zero(spec[m:])
	PlanFor(n).forwardScrambled(spec)
	invN := complex(1/float64(n), 0)
	for i := range spec {
		spec[i] = cmplx.Conj(spec[i]) * invN
	}
	return spec
}

// overlapSave is the engine's block loop. specs holds y's block
// spectra when they were prepared ahead (block b at [b·n, (b+1)·n)), or
// is nil, in which case each block is transformed into blk as the loop
// reaches it. blk is the inverse transform's working block.
func overlapSave(dst, y []complex128, m int, p *Plan, spec, specs, blk []complex128) []complex128 {
	n := p.n
	out := len(y) - m + 1
	dst = ensure(dst, out)
	step := n - m + 1
	for b, base := 0, 0; base < out; b, base = b+1, base+step {
		src := blk
		if specs != nil {
			src = specs[b*n : (b+1)*n]
		} else {
			forwardBlock(p, blk, y, base)
		}
		p.inverseScrambledProduct(blk, src, spec)
		keep := step
		if rest := out - base; rest < keep {
			keep = rest
		}
		copy(dst[base:base+keep], blk[:keep])
	}
	return dst
}

// forwardBlock loads the overlap-save block of y starting at base into
// blk (zero-padded past the end of y) and transforms it in place.
func forwardBlock(p *Plan, blk, y []complex128, base int) {
	end := base + p.n
	if end > len(y) {
		end = len(y)
	}
	c := copy(blk, y[base:end])
	zero(blk[c:])
	p.forwardScrambled(blk)
}

// Prepared is a signal transformed once for correlation against many
// references of one length — the store matcher locates every stored
// packet inside the same fresh reception. Its block spectra are
// computed on the first correlation that takes the FFT path and reused
// by every later one, so each further reference costs one product and
// one inverse transform per block. Results are bit-identical to
// Correlate on the same inputs, kernel dispatch included. The zero
// value is empty; a Prepared must not be used from multiple goroutines
// at once, and the signal must not change while it is prepared.
type Prepared struct {
	y     []complex128
	m     int
	n     int          // plan size specs were computed for; 0 = none yet
	specs []complex128 // block spectra, block b at [b·n, (b+1)·n)
}

// Prepare readies y for correlation against references of length m,
// discarding any previously prepared signal (its storage is kept).
func (pr *Prepared) Prepare(y []complex128, m int) {
	pr.y, pr.m, pr.n = y, m, 0
}

// Signal returns the prepared signal.
func (pr *Prepared) Signal() []complex128 { return pr.y }

// RefLen returns the reference length the signal was prepared for.
func (pr *Prepared) RefLen() int { return pr.m }

// PlanSize returns the FFT block size the prepared shape correlates
// with, or 0 when Correlate would take the naive kernel.
func (pr *Prepared) PlanSize() int { return PlanSize(pr.m, len(pr.y)) }

// Correlate computes Correlate(dst, pr.Signal(), ref, freqStep, s)
// bit-identically; len(ref) must equal RefLen. spec, when its length
// equals PlanSize, must be RefSpectrum(ref, freqStep, PlanSize()) and
// replaces the reference transform; otherwise it is ignored. s may be
// nil, in which case a pooled Scratch is used.
func (pr *Prepared) Correlate(dst, ref []complex128, freqStep float64, spec []complex128, s *Scratch) []complex128 {
	m := len(ref)
	if m != pr.m {
		panic("fft: reference length does not match the prepared length")
	}
	if m == 0 || len(pr.y) < m {
		return nil
	}
	n := pr.PlanSize()
	if n == 0 {
		return correlateNaive(dst, pr.y, ref, freqStep, s)
	}
	if s == nil {
		s = getScratch(n)
		defer putScratch(n, s)
	} else {
		s.ensure(n)
	}
	if len(spec) != n {
		s.spec = refSpectrum(s.spec, ref, freqStep, n, s)
		spec = s.spec
	}
	p := PlanFor(n)
	if pr.n != n {
		step := n - m + 1
		out := len(pr.y) - m + 1
		nb := (out + step - 1) / step
		pr.specs = ensure(pr.specs, nb*n)
		for b := 0; b < nb; b++ {
			forwardBlock(p, pr.specs[b*n:(b+1)*n], pr.y, b*step)
		}
		pr.n = n
	}
	return overlapSave(dst, pr.y, m, p, spec, pr.specs, s.block)
}

// planSize picks the FFT block size for a reference of length m sliding
// over a buffer of length ly: at least 4·M rounded up to a power of two
// — enough that ≥3/4 of every block is fresh output — bumped to the
// next odd log₂ size when needed so the transforms end in the fused
// 8-point sweep (amortized cost is nearly flat in n, so the bump is
// free), and capped at the single-block size when the whole buffer fits
// in less.
func planSize(m, ly int) int {
	n := NextPow2(4 * m)
	if bits.TrailingZeros(uint(n))&1 == 0 {
		n <<= 1
	}
	if full := NextPow2(ly); full < n {
		n = full
	}
	return n
}

func zero(x []complex128) {
	for i := range x {
		x[i] = 0
	}
}

// ensure returns dst resized to length n, reusing its backing array
// when the capacity allows.
func ensure(dst []complex128, n int) []complex128 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]complex128, n)
}

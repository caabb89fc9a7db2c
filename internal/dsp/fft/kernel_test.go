package fft

import (
	"math"
	"math/rand"
	"testing"
)

// kernelInput fills n samples spanning the float64 range: ±0,
// subnormals, magnitudes near 1e300 and everything between, scaled so
// no transform overflows.
func kernelInput(r *rand.Rand, n int) []complex128 {
	special := []float64{0, math.Copysign(0, -1), 5e-324, -4e-320, 2.2250738585072014e-308, -1e-310, 1e300, -3e299}
	comp := func() float64 {
		if r.Intn(4) == 0 {
			return special[r.Intn(len(special))]
		}
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(611)-315))
	}
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(comp(), comp())
	}
	return x
}

// requireBits fails unless got and want are equal bit for bit and
// finite (a NaN would make the comparison depend on payloads).
func requireBits(t *testing.T, tag string, got, want []complex128) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		for _, v := range []float64{real(w), imag(w)} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: non-finite reference output %v at %d", tag, w, i)
			}
		}
		if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
			math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
			t.Fatalf("%s: sample %d = %v, Go kernel %v", tag, i, g, w)
		}
	}
}

// forwardScrambledGo is Plan.forwardScrambled on the Go kernels only.
func forwardScrambledGo(p *Plan, x []complex128) {
	n := p.n
	nGen := len(p.r4F)
	if p.fuse8 {
		nGen--
	}
	for si := 0; si < nGen; si++ {
		fwdStage4Go(x, n, n>>(2*si), p.r4F[si])
	}
	if p.fuse8 {
		fwd8Go(x)
		return
	}
	switch n >> (2 * len(p.r4F)) {
	case 4:
		fwd4(x)
	case 2:
		fwd2(x)
	}
}

// inverseScrambledProductGo is Plan.inverseScrambledProduct on the Go
// kernels only.
func inverseScrambledProductGo(p *Plan, dst, src, spec []complex128) {
	n := p.n
	first := len(p.r4I) - 1
	if p.fuse8 {
		inv8MulGo(dst, src, spec)
		first--
	} else {
		switch n >> (2 * len(p.r4I)) {
		case 4:
			inv4Mul(dst, src, spec)
		case 2:
			inv2Mul(dst, src, spec)
		case 1:
			if n == 1 {
				dst[0] = src[0] * spec[0]
			}
		}
	}
	for si := first; si >= 0; si-- {
		invStage4Go(dst, n, n>>(2*si), p.r4I[si])
	}
}

// TestKernelsMatchGoReference pins the dispatched butterfly kernels
// (SSE2 assembly on amd64) to the Go kernels bit for bit, for every
// plan size 2…2¹⁶: the forward scrambled transform, and the inverse
// with the spectrum product both in place (dst aliasing src, as in a
// one-off correlation) and out of place (as against prepared spectra).
func TestKernelsMatchGoReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for n := 2; n <= 1<<16; n <<= 1 {
		p := PlanFor(n)
		x := kernelInput(r, n)
		got := append([]complex128(nil), x...)
		want := append([]complex128(nil), x...)
		p.forwardScrambled(got)
		forwardScrambledGo(p, want)
		requireBits(t, "forward", got, want)

		// A spectrum of unit-scale values keeps the products finite.
		spec := randVec(r, n)
		src := kernelInput(r, n)
		want = make([]complex128, n)
		inverseScrambledProductGo(p, want, src, spec)
		got = make([]complex128, n)
		p.inverseScrambledProduct(got, src, spec)
		requireBits(t, "inverse", got, want)
		p.inverseScrambledProduct(src, src, spec)
		requireBits(t, "inverse in place", src, want)
	}
}

// TestStageKernelsMatchGoReference drives each fused stage on its own
// at every block size the plans use, including the peeled j = 0
// butterfly, so a kernel fault is reported against its stage.
func TestStageKernelsMatchGoReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for n := 8; n <= 1<<16; n <<= 1 {
		p := PlanFor(n)
		for si := range p.r4F {
			size := n >> (2 * si)
			x := kernelInput(r, n)
			got := append([]complex128(nil), x...)
			fwdStage4(got, n, size, p.r4F[si])
			fwdStage4Go(x, n, size, p.r4F[si])
			requireBits(t, "fwdStage4", got, x)
			x = kernelInput(r, n)
			got = append(got[:0], x...)
			invStage4(got, n, size, p.r4I[si])
			invStage4Go(x, n, size, p.r4I[si])
			requireBits(t, "invStage4", got, x)
		}
		x := kernelInput(r, n)
		got := append([]complex128(nil), x...)
		fwd8(got)
		fwd8Go(x)
		requireBits(t, "fwd8", got, x)
	}
}

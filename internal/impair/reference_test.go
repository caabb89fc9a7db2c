package impair

import (
	"math/cmplx"
	"testing"
)

// referenceTol is the documented agreement of the kern kernel paths
// with the per-sample scalar references, relative to the signal scale.
const referenceTol = 1e-9

// renderBoth applies one reception of c and of c.Reference() to copies
// of in (two emissions, then the front end) and returns both renders.
func renderBoth(c *Chain, in []complex128) (got, want []complex128) {
	c.Reset(5)
	ref := c.Reference()
	render := func(c *Chain) []complex128 {
		buf := append([]complex128(nil), in...)
		c.BeginReception()
		c.ImpairEmission(0, buf[:len(buf)/2], 60)
		c.ImpairEmission(1, buf[len(buf)/2:], 60+len(buf)/2)
		c.ImpairFront(buf)
		return buf
	}
	return render(c), render(ref)
}

// maxDiff returns the largest per-sample distance between a and b.
func maxDiff(a, b []complex128) float64 {
	var worst float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestReferenceAgreesPerModel checks every model's kernel path against
// its scalar reference through Chain.Reference: the rotator-based
// models within referenceTol of the signal scale (and not bit-identical,
// which would mean the reference was never reached), the quantizer bit
// for bit.
func TestReferenceAgreesPerModel(t *testing.T) {
	in := testBuf(4096, 31)
	for name, m := range linkModels() {
		got, want := renderBoth(&Chain{Link: []LinkModel{m}}, in)
		if d := maxDiff(got, want); d > referenceTol || d == 0 {
			t.Errorf("%s: kernel vs reference max |Δ| = %g, want in (0, %g]", name, d, referenceTol)
		}
	}
	for name, m := range frontModels() {
		got, want := renderBoth(&Chain{Front: []FrontModel{m}}, in)
		d := maxDiff(got, want)
		switch {
		case name == "adc" && d != 0:
			t.Errorf("adc: kernel not bit-identical to the reference rail (max |Δ| = %g)", d)
		case name != "adc" && (d > referenceTol || d == 0):
			t.Errorf("%s: kernel vs reference max |Δ| = %g, want in (0, %g]", name, d, referenceTol)
		}
	}
}

// TestReferenceChainAgrees checks a composed chain (every link model
// plus the interferer; the quantizer is left out because it turns a
// 1e-9 input delta into a full step at a decision boundary) over
// several receptions, and that Reference leaves the chain itself on the
// kernel path.
func TestReferenceChainAgrees(t *testing.T) {
	c := fullChain()
	c.Front = c.Front[:1]
	in := testBuf(4096, 37)
	got, want := renderBoth(c, in)
	if d := maxDiff(got, want); d > referenceTol {
		t.Fatalf("chain kernel vs reference max |Δ| = %g, want ≤ %g", d, referenceTol)
	}
	again, _ := renderBoth(c, in)
	if !equal(again, got) {
		t.Fatal("Reference changed the chain it was taken from")
	}
}

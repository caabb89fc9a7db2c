package phy

import (
	"math"
	"testing"

	"zigzag/internal/channel"
	"zigzag/internal/dsp"
)

// sameBits reports whether two complex slices are equal bit for bit.
func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestRefineSpanReuseMatchesRebuild pins the subtracted-image reuse in
// RefineSpan: on a hit (the span, snapshot and chips of the last
// Subtract) and on every miss and invalidation path, the residual, the
// returned δφ and the tracker state equal those of a modeler that
// re-renders the image. Each case runs on two identically driven
// modelers, the second with its record cleared before refining, and
// then refines the same span again (the first refinement scaled the
// image in place, so the second must re-render it).
func TestRefineSpanReuseMatchesRebuild(t *testing.T) {
	link := &channel.Params{Gain: 0.8, FreqOffset: 0.003, SamplingOffset: 0.3, ISI: channel.TypicalISI(1)}
	cfg, rx, wave, s := modelerScenario(t, link, 1e-4, 47)
	s.Freq = 0.003 * 0.97 // a coarse error for the tracker to measure
	shaper := NewModeler(cfg, s)
	if err := shaper.FitISI(rx, wave, 0, 600); err != nil {
		t.Fatal(err)
	}
	shape, ok := shaper.Shape()
	if !ok {
		t.Fatal("no fitted shape")
	}
	same := func(c []complex128) []complex128 { return c }
	cases := []struct {
		name     string
		hit      bool
		from, to int                             // the span refined
		subChips func([]complex128) []complex128 // chips Subtract renders
		between  func(m *Modeler, res, chips []complex128)
		snap     func(ModelState) ModelState
	}{
		{name: "hit", hit: true, from: 1500, to: 2300},
		{name: "sub-span", from: 1600, to: 2200},
		{name: "BuildImage", from: 1500, to: 2300, between: func(m *Modeler, _, chips []complex128) {
			m.BuildImage(chips, 200, 500)
		}},
		{name: "TrackAndSubtract", from: 1500, to: 2300, between: func(m *Modeler, res, chips []complex128) {
			m.TrackAndSubtract(res, chips, 2400, 2600)
		}},
		{name: "FitISI", from: 1500, to: 2300, between: func(m *Modeler, _, chips []complex128) {
			if err := m.FitISI(rx, chips, 0, 800); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "SetShape", from: 1500, to: 2300, between: func(m *Modeler, _, _ []complex128) {
			m.SetShape(shape)
		}},
		{name: "other snapshot", from: 1500, to: 2300, snap: func(st ModelState) ModelState {
			st.AnchorPhase = math.Copysign(0, -1) // differs from +0 in bits only
			return st
		}},
		{name: "regrown chips", from: 1500, to: 2300, subChips: func(c []complex128) []complex128 {
			return append([]complex128(nil), c...) // same values, other buffer
		}},
		{name: "same buffer, other length", from: 1500, to: 2300, subChips: func(c []complex128) []complex128 {
			return c[:len(c)-1]
		}},
	}
	for _, tc := range cases {
		if tc.subChips == nil {
			tc.subChips = same
		}
		var res [2][]complex128
		var dphi [2]float64
		var st [2]ModelState
		for k := range res {
			m := NewModeler(cfg, s)
			if err := m.FitISI(rx, wave, 0, 600); err != nil {
				t.Fatal(err)
			}
			res[k] = dsp.Clone(rx)
			snap := m.State()
			m.Subtract(res[k], tc.subChips(wave), 700, 1100)
			m.Subtract(res[k], tc.subChips(wave), 1500, 2300)
			if tc.between != nil {
				tc.between(m, res[k], wave)
			}
			if tc.snap != nil {
				snap = tc.snap(snap)
			}
			if k == 1 {
				m.sub.ok = false // the reference re-renders
			} else if got := m.subtracted(wave, tc.from, tc.to, snap); got != tc.hit {
				t.Fatalf("%s: reuse = %v, want %v", tc.name, got, tc.hit)
			}
			dphi[k] = m.RefineSpan(res[k], wave, tc.from, tc.to, snap)
			if dphi[k] != 0 && m.subtracted(wave, tc.from, tc.to, snap) {
				t.Fatalf("%s: record survived the in-place scaling", tc.name)
			}
			dphi[k] += m.RefineSpan(res[k], wave, tc.from, tc.to, snap)
			st[k] = m.State()
		}
		if tc.hit && dphi[0] == 0 {
			t.Fatalf("%s: refinement measured nothing", tc.name)
		}
		if math.Float64bits(dphi[0]) != math.Float64bits(dphi[1]) || !sameState(st[0], st[1]) || !sameBits(res[0], res[1]) {
			t.Errorf("%s: reuse δφ %v state %+v, rebuild δφ %v state %+v (residuals equal: %v)",
				tc.name, dphi[0], st[0], dphi[1], st[1], sameBits(res[0], res[1]))
		}
	}
}

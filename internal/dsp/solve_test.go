package dsp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestSolveLinearKnownSystem(t *testing.T) {
	m := [][]float64{
		{2, 1, 0},
		{1, 3, 1},
		{0, 1, 2},
	}
	// x = (1, 2, 3) ⇒ v = (4, 10, 8)
	v := []float64{4, 10, 8}
	x, err := SolveLinear(m, v)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	m := [][]float64{{1, 1}, {2, 2}}
	if _, err := SolveLinear(m, []float64{1, 2}); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	m := [][]float64{{0, 1}, {1, 0}}
	x, err := SolveLinear(m, []float64{5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-5) > 1e-12 {
		t.Fatalf("x = %v, want [7 5]", x)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	// Fit y = 3x₀ − 2x₁ with noise; 50 equations, 2 unknowns.
	var a [][]float64
	var b []float64
	for i := 0; i < 50; i++ {
		x0, x1 := r.NormFloat64(), r.NormFloat64()
		a = append(a, []float64{x0, x1})
		b = append(b, 3*x0-2*x1+0.01*r.NormFloat64())
	}
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 0.02 || math.Abs(x[1]+2) > 0.02 {
		t.Fatalf("fit = %v, want ≈ [3 -2]", x)
	}
}

func TestLeastSquaresRejectsBadInput(t *testing.T) {
	if _, err := SolveLeastSquares(nil, nil); err == nil {
		t.Fatal("nil input should error")
	}
	if _, err := SolveLeastSquares([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("dimension mismatch should error")
	}
	if _, err := SolveLeastSquares([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Fatal("ragged matrix should error")
	}
	if _, err := SolveLeastSquares([][]float64{{0, 0}}, []float64{0}); err == nil {
		t.Fatal("all-zero matrix should error")
	}
}

func TestComplexLeastSquares(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	truth := []complex128{2 - 1i, 0.5i}
	var a [][]complex128
	var b []complex128
	for i := 0; i < 40; i++ {
		row := []complex128{
			complex(r.NormFloat64(), r.NormFloat64()),
			complex(r.NormFloat64(), r.NormFloat64()),
		}
		a = append(a, row)
		b = append(b, row[0]*truth[0]+row[1]*truth[1])
	}
	x, err := SolveComplexLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if absC(x[i]-truth[i]) > 1e-6 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], truth[i])
		}
	}
}

func TestGainPhase(t *testing.T) {
	g, p := GainPhase(complex(0, 2))
	if math.Abs(g-2) > 1e-12 || math.Abs(p-math.Pi/2) > 1e-12 {
		t.Fatalf("GainPhase = (%v, %v)", g, p)
	}
}

// TestLSQBitIdenticalAndAllocFree pins the scratch-threaded solver
// against the free functions: identical bits on repeated reuse, and
// zero steady-state allocations once the arenas have grown.
func TestLSQBitIdenticalAndAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	var s LSQ
	mk := func(rows, w int) ([][]complex128, []complex128, []complex128, []complex128) {
		x := make([]complex128, rows+4*w)
		y := make([]complex128, rows+4*w)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
			y[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		a := make([][]complex128, rows)
		b := make([]complex128, rows)
		for i := range a {
			a[i] = make([]complex128, 2*w+1)
			for j := range a[i] {
				a[i][j] = complex(r.NormFloat64(), r.NormFloat64())
			}
			b[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		return a, b, x, y
	}
	// Vary system sizes across iterations so the reuse path (grow,
	// shrink, regrow) is exercised, then compare against fresh solves.
	for iter := 0; iter < 6; iter++ {
		rows, w := 20+7*(iter%3), 2+iter%2
		a, b, x, y := mk(rows, w)
		want, err1 := SolveComplexLeastSquares(a, b)
		got, err2 := s.SolveComplexLeastSquares(a, b)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("iter %d: error mismatch %v vs %v", iter, err1, err2)
		}
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("iter %d tap %d: %v != %v", iter, j, got[j], want[j])
			}
		}
		wantF, err1 := EstimateFIR(x, y, w, rows, w)
		gotF, err2 := s.EstimateFIR(x, y, w, rows, w)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("iter %d: EstimateFIR error mismatch %v vs %v", iter, err1, err2)
		}
		if err1 == nil {
			if wantF.Center != gotF.Center || len(wantF.Taps) != len(gotF.Taps) {
				t.Fatalf("iter %d: FIR shape mismatch", iter)
			}
			for j := range wantF.Taps {
				if wantF.Taps[j] != gotF.Taps[j] {
					t.Fatalf("iter %d FIR tap %d: %v != %v", iter, j, gotF.Taps[j], wantF.Taps[j])
				}
			}
		}
	}
	// Steady state: constant-size refits allocate nothing.
	a, b, x, y := mk(40, 3)
	op := func() {
		if _, err := s.SolveComplexLeastSquares(a, b); err != nil {
			t.Fatal(err)
		}
		if _, err := s.EstimateFIR(x, y, 3, 40, 3); err != nil {
			t.Fatal(err)
		}
	}
	op()
	if n := testing.AllocsPerRun(30, op); n != 0 {
		t.Errorf("LSQ steady state: %v allocs per run, want 0", n)
	}
}

// TestLSQShortRowsZeroPadded pins that a reused LSQ zero-pads short
// complex rows exactly like the allocate-per-call path: a wide solve
// must not leave stale coefficients behind for a later narrower/ragged
// system.
func TestLSQShortRowsZeroPadded(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	var s LSQ
	// Dirty the arenas with a wide system.
	wide := make([][]complex128, 12)
	wb := make([]complex128, 12)
	for i := range wide {
		wide[i] = make([]complex128, 7)
		for j := range wide[i] {
			wide[i][j] = complex(r.NormFloat64(), r.NormFloat64())
		}
		wb[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	if _, err := s.SolveComplexLeastSquares(wide, wb); err != nil {
		t.Fatal(err)
	}
	// Ragged system: some rows shorter than the first.
	a := make([][]complex128, 10)
	b := make([]complex128, 10)
	for i := range a {
		w := 4
		if i > 0 && i%3 == 0 {
			w = 2 // short row: tail must read as zero
		}
		a[i] = make([]complex128, w)
		for j := range a[i] {
			a[i][j] = complex(r.NormFloat64(), r.NormFloat64())
		}
		b[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	want, err1 := SolveComplexLeastSquares(a, b)
	got, err2 := s.SolveComplexLeastSquares(a, b)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("error mismatch: %v vs %v", err1, err2)
	}
	for j := range want {
		if want[j] != got[j] {
			t.Fatalf("tap %d: reused scratch %v, fresh %v", j, got[j], want[j])
		}
	}
}

// TestComplexLeastSquaresRejectsLongRow pins that a row longer than the
// first is a ragged matrix — an error, as for the real solver — on both
// the free function and a reused LSQ, instead of an index panic.
func TestComplexLeastSquaresRejectsLongRow(t *testing.T) {
	a := [][]complex128{{1, 2}, {3, 4, 5}, {6, 7}}
	b := []complex128{1, 2, 3}
	if _, err := SolveComplexLeastSquares(a, b); !errors.Is(err, errRaggedMatrix) {
		t.Fatalf("free solver: err = %v, want %v", err, errRaggedMatrix)
	}
	var s LSQ
	if _, err := s.SolveComplexLeastSquares(a, b); !errors.Is(err, errRaggedMatrix) {
		t.Fatalf("LSQ solver: err = %v, want %v", err, errRaggedMatrix)
	}
}

package dsp

// LSQ is reusable working storage for the small least-squares solves
// (equalizer training, re-encoding FIR estimation). The free functions
// in solve.go allocate their row/normal-equation matrices per call,
// which is fine for one-shot fits but shows up as steady GC pressure
// when the Monte-Carlo harnesses fit a channel model per trial; an LSQ
// owned by the fitting object (phy.Modeler, phy.SymbolDecoder) makes
// those fits allocation-free in steady state.
//
// Every method performs arithmetic identical to its free-function
// counterpart — same accumulation order, same pivoting — so fits are
// bit-identical whichever entry point runs them (the solver tests pin
// this). Returned slices are the scratch itself: valid until the next
// call on the same LSQ, to be copied by callers that retain them.
//
// An LSQ must not be shared by concurrent goroutines.
type LSQ struct {
	// Complex row system (EstimateFIR / SolveComplexLeastSquares).
	crows [][]complex128
	cflat []complex128
	crhs  []complex128
	ctaps []complex128

	// Stacked real system (SolveComplexLeastSquares).
	rrows [][]float64
	rflat []float64
	rrhs  []float64

	// Normal equations (SolveLeastSquares) and solution vector.
	ata     [][]float64
	ataFlat []float64
	atb     []float64
	x       []float64
}

// ensureF is ensure (vec.go) for float64 scratch slices.
func ensureF(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// rowViewsF carves rows of width w out of a flat arena, reusing both
// the header slice and the backing array.
func rowViewsF(rows [][]float64, flat []float64, n, w int) ([][]float64, []float64) {
	flat = ensureF(flat, n*w)
	if cap(rows) < n {
		rows = make([][]float64, n)
	}
	rows = rows[:n]
	for i := range rows {
		rows[i] = flat[i*w : (i+1)*w]
	}
	return rows, flat
}

// rowViewsC is rowViewsF for complex rows.
func rowViewsC(rows [][]complex128, flat []complex128, n, w int) ([][]complex128, []complex128) {
	flat = ensure(flat, n*w)
	if cap(rows) < n {
		rows = make([][]complex128, n)
	}
	rows = rows[:n]
	for i := range rows {
		rows[i] = flat[i*w : (i+1)*w]
	}
	return rows, flat
}

// SolveLinear solves the square system M·x = v by Gaussian elimination
// with partial pivoting, exactly as the free SolveLinear. M is modified
// in place; the returned x is scratch.
func (s *LSQ) SolveLinear(m [][]float64, v []float64) ([]float64, error) {
	n := len(m)
	if n == 0 || len(v) != n {
		return nil, ErrSingular
	}
	s.x = ensureF(s.x, n)
	x := s.x
	copy(x, v)
	for col := 0; col < n; col++ {
		p, best := col, abs64(m[col][col])
		for r := col + 1; r < n; r++ {
			if ab := abs64(m[r][col]); ab > best {
				p, best = r, ab
			}
		}
		if best == 0 || best != best { // 0 or NaN
			return nil, ErrSingular
		}
		m[col], m[p] = m[p], m[col]
		x[col], x[p] = x[p], x[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			m[r][col] = 0
			for c := col + 1; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	for col := n - 1; col >= 0; col-- {
		sum := x[col]
		for c := col + 1; c < n; c++ {
			sum -= m[col][c] * x[c]
		}
		x[col] = sum / m[col][col]
	}
	return x, nil
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// SolveLeastSquares forms and solves the ridge-stabilized normal
// equations exactly as the free SolveLeastSquares; the returned x is
// scratch.
func (s *LSQ) SolveLeastSquares(a [][]float64, b []float64) ([]float64, error) {
	if len(a) == 0 {
		return nil, ErrSingular
	}
	if len(a) != len(b) {
		return nil, errDimensionMismatch
	}
	n := len(a[0])
	if n == 0 {
		return nil, ErrSingular
	}
	s.ata, s.ataFlat = rowViewsF(s.ata, s.ataFlat, n, n)
	s.atb = ensureF(s.atb, n)
	ata, atb := s.ata, s.atb
	for i := range ata {
		row := ata[i]
		for j := range row {
			row[j] = 0
		}
		atb[i] = 0
	}
	var scale float64
	for r, row := range a {
		if len(row) != n {
			return nil, errRaggedMatrix
		}
		for i := 0; i < n; i++ {
			if row[i] == 0 {
				continue
			}
			for j := i; j < n; j++ {
				ata[i][j] += row[i] * row[j]
			}
			atb[i] += row[i] * b[r]
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			ata[i][j] = ata[j][i]
		}
		if ata[i][i] > scale {
			scale = ata[i][i]
		}
	}
	if scale == 0 {
		return nil, ErrSingular
	}
	ridge := scale * 1e-9
	for i := 0; i < n; i++ {
		ata[i][i] += ridge
	}
	return s.SolveLinear(ata, atb)
}

// SolveComplexLeastSquares stacks the complex system into real rows
// exactly as the free SolveComplexLeastSquares; the returned solution
// is scratch.
func (s *LSQ) SolveComplexLeastSquares(a [][]complex128, b []complex128) ([]complex128, error) {
	if len(a) == 0 || len(a) != len(b) {
		return nil, ErrSingular
	}
	n := len(a[0])
	s.rrows, s.rflat = rowViewsF(s.rrows, s.rflat, 2*len(a), 2*n)
	s.rrhs = ensureF(s.rrhs, 2*len(a))
	for r, row := range a {
		if len(row) > n {
			return nil, errRaggedMatrix
		}
		rowRe, rowIm := s.rrows[2*r], s.rrows[2*r+1]
		if len(row) < n {
			// Short rows are zero-padded (the allocate-per-call path got
			// this for free from fresh rows; the arena must clear the
			// stale tail explicitly).
			for j := 2 * len(row); j < 2*n; j++ {
				rowRe[j], rowIm[j] = 0, 0
			}
		}
		for j, c := range row {
			rowRe[2*j], rowRe[2*j+1] = real(c), -imag(c)
			rowIm[2*j], rowIm[2*j+1] = imag(c), real(c)
		}
		s.rrhs[2*r], s.rrhs[2*r+1] = real(b[r]), imag(b[r])
	}
	sol, err := s.SolveLeastSquares(s.rrows, s.rrhs)
	if err != nil {
		return nil, err
	}
	s.ctaps = ensure(s.ctaps, n)
	for j := range s.ctaps {
		s.ctaps[j] = complex(sol[2*j], sol[2*j+1])
	}
	return s.ctaps, nil
}

// EstimateFIR fits the re-encoding FIR exactly as the free EstimateFIR.
// The returned FIR's taps are scratch: copy them before the next call
// on this LSQ.
func (s *LSQ) EstimateFIR(x, y []complex128, from, to, w int) (FIR, error) {
	if from < 0 {
		from = 0
	}
	if to > len(y) {
		to = len(y)
	}
	if to > len(x) {
		to = len(x)
	}
	m := 2*w + 1
	if to-from < m {
		return FIR{}, ErrSingular
	}
	s.crows, s.cflat = rowViewsC(s.crows, s.cflat, to-from, m)
	s.crhs = ensure(s.crhs, to-from)
	used := 0
	for n := from; n < to; n++ {
		row := s.crows[used]
		ok := true
		for l := -w; l <= w; l++ {
			i := n - l
			if i < 0 || i >= len(x) {
				ok = false
				break
			}
			row[l+w] = x[i]
		}
		if !ok {
			continue
		}
		s.crhs[used] = y[n]
		used++
	}
	taps, err := s.SolveComplexLeastSquares(s.crows[:used], s.crhs[:used])
	if err != nil {
		return FIR{}, err
	}
	return FIR{Taps: taps, Center: w}, nil
}

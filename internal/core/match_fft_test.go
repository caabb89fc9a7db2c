package core

import (
	"math"
	"math/rand"
	"testing"

	"zigzag/internal/dsp"
)

// syntheticLocateScenario embeds the data window of a synthetic stored
// collision inside a long fresh reception at a known position, the
// LocatePacket workload without the full PHY setup (the correlation
// kernel only sees samples).
func syntheticLocateScenario(seed int64, freshLen int) (cfg Config, stored []complex128, storedStart float64, fresh []complex128, wantPos int) {
	cfg = DefaultConfig()
	r := rand.New(rand.NewSource(seed))
	stored = make([]complex128, 4096)
	for i := range stored {
		stored[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	storedStart = 40
	fresh = make([]complex128, freshLen)
	for i := range fresh {
		fresh[i] = complex(0.3*r.NormFloat64(), 0.3*r.NormFloat64())
	}
	wantPos = freshLen / 2
	// Re-embed the stored packet (from its start) so the data window
	// reappears at wantPos + skip.
	for k := 40; k < len(stored) && wantPos+k-40 < freshLen; k++ {
		fresh[wantPos+k-40] += stored[k]
	}
	return cfg, stored, storedStart, fresh, wantPos
}

// naiveLocate is the wide-window matcher's reference: the profile from
// the naive sliding kernel (dsp.CorrelateProfile), each window's energy
// summed directly, and the same greedy peak picking as locatePacket.
func naiveLocate(cfg Config, stored []complex128, storedStart float64, fresh []complex128, max int) []LocateResult {
	ref := matchRef(cfg, stored, storedStart)
	refE := dsp.Energy(ref)
	prof := dsp.CorrelateProfile(fresh, ref, 0)
	score := make([]float64, len(prof))
	for i := range prof {
		if e := dsp.Energy(fresh[i : i+len(ref)]); e > 0 {
			score[i] = real(prof[i])*real(prof[i]) + imag(prof[i])*imag(prof[i])
			score[i] /= refE * e
		}
	}
	skip := matchSkip(cfg)
	minSp := cfg.PHY.PreambleBits * cfg.PHY.SamplesPerSymbol
	var out []LocateResult
	for len(out) < max {
		best, bi := 0.0, -1
		for i, sc := range score {
			tooClose := false
			for _, o := range out {
				tooClose = tooClose || abs(i-skip-o.Pos) < minSp
			}
			if sc > best && !tooClose {
				best, bi = sc, i
			}
		}
		if bi < 0 {
			break
		}
		out = append(out, LocateResult{Pos: bi - skip, Score: math.Sqrt(best)})
	}
	return out
}

// TestLocatePacketFFTMatchesNaive pins the wide-window matcher against
// its naive reference: the FFT path must return the same candidate
// positions, with scores agreeing to rounding error.
func TestLocatePacketFFTMatchesNaive(t *testing.T) {
	cfg, stored, start, fresh, wantPos := syntheticLocateScenario(60, 1<<14)
	got := LocatePacket(cfg, stored, start, fresh, 3)
	want := naiveLocate(cfg, stored, start, fresh, 3)
	if len(got) == 0 || got[0].Pos != wantPos {
		t.Fatalf("FFT path: best candidate %+v, want pos %d", got, wantPos)
	}
	if len(got) != len(want) {
		t.Fatalf("fft returned %d candidates, naive %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Pos != want[i].Pos {
			t.Errorf("candidate %d: fft pos %d, naive pos %d", i, got[i].Pos, want[i].Pos)
		}
		if d := math.Abs(got[i].Score - want[i].Score); d > 1e-9 {
			t.Errorf("candidate %d: scores differ by %g", i, d)
		}
	}
}

// BenchmarkLocatePacket compares the §4.2.2 wide-window matcher with
// its naive reference: a 512-sample data window located inside a
// 64k-sample fresh reception.
func BenchmarkLocatePacket(b *testing.B) {
	cfg, stored, start, fresh, _ := syntheticLocateScenario(61, 1<<16)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			naiveLocate(cfg, stored, start, fresh, 3)
		}
	})
	b.Run("fft", func(b *testing.B) {
		var s locateScratch
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			locatePacket(cfg, stored, start, fresh, 3, nil, &s)
		}
	})
}

// TestLocatePacketSteadyStateAllocs pins the threaded-scratch
// guarantee on the store-matching path: with a warmed locateScratch the
// only steady-state allocation is the small result slice.
func TestLocatePacketSteadyStateAllocs(t *testing.T) {
	cfg, stored, start, fresh, _ := syntheticLocateScenario(62, 1<<14)
	var s locateScratch
	locatePacket(cfg, stored, start, fresh, 3, nil, &s)
	if allocs := testing.AllocsPerRun(10, func() {
		locatePacket(cfg, stored, start, fresh, 3, nil, &s)
	}); allocs > 3 {
		t.Errorf("steady-state locatePacket allocates %v times per run, want ≤3 (result-slice growth only)", allocs)
	}
}

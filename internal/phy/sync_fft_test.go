package phy

import (
	"math/rand"
	"reflect"
	"testing"

	"zigzag/internal/dsp"
	"zigzag/internal/dsp/fft"
)

// collisionBuffer builds a buffer with two preamble-led packets over
// noise, the detector's realistic input shape.
func collisionBuffer(t testing.TB, cfg Config, seed int64, n int) []complex128 {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	rx := make([]complex128, n)
	for i := range rx {
		rx[i] = complex(0.05*r.NormFloat64(), 0.05*r.NormFloat64())
	}
	wave := cfg.PreambleWave()
	for _, off := range []int{200, n / 2} {
		for k, v := range wave {
			rx[off+k] += v
		}
	}
	return rx
}

// TestDetectFFTMatchesNaive pins the rewiring: Detect through the FFT
// engine must find the same packets, at the same positions, as the
// naive kernel it replaced.
func TestDetectFFTMatchesNaive(t *testing.T) {
	cfg := Default()
	rx := collisionBuffer(t, cfg, 50, 4096)
	fftSyncs := NewSynchronizer(cfg).Detect(rx, 0.002, 0.5, 1)
	fft.SetForceNaive(true)
	naiveSyncs := NewSynchronizer(cfg).Detect(rx, 0.002, 0.5, 1)
	fft.SetForceNaive(false)
	if len(fftSyncs) != 2 {
		t.Fatalf("detected %d packets, want 2", len(fftSyncs))
	}
	if len(fftSyncs) != len(naiveSyncs) {
		t.Fatalf("fft found %d syncs, naive %d", len(fftSyncs), len(naiveSyncs))
	}
	for i := range fftSyncs {
		if fftSyncs[i].RefPos != naiveSyncs[i].RefPos {
			t.Errorf("sync %d: fft pos %d, naive pos %d", i, fftSyncs[i].RefPos, naiveSyncs[i].RefPos)
		}
		if d := fftSyncs[i].Mag - naiveSyncs[i].Mag; d > 1e-6 || d < -1e-6 {
			t.Errorf("sync %d: magnitude differs by %g", i, d)
		}
	}
}

// TestDetectScratchReuse verifies that the Synchronizer's internal
// buffers carry no state between calls: interleaving different buffers
// and frequencies must reproduce the fresh-synchronizer results.
func TestDetectScratchReuse(t *testing.T) {
	cfg := Default()
	rxA := collisionBuffer(t, cfg, 51, 4096)
	rxB := collisionBuffer(t, cfg, 52, 1024) // different size: scratch regrows
	sy := NewSynchronizer(cfg)
	wantA := NewSynchronizer(cfg).Detect(rxA, 0.001, 0.5, 1)
	wantB := NewSynchronizer(cfg).Detect(rxB, -0.003, 0.5, 1)
	for round := 0; round < 3; round++ {
		if got := sy.Detect(rxA, 0.001, 0.5, 1); !reflect.DeepEqual(got, wantA) {
			t.Fatalf("round %d: buffer A diverged after scratch reuse", round)
		}
		if got := sy.Detect(rxB, -0.003, 0.5, 1); !reflect.DeepEqual(got, wantB) {
			t.Fatalf("round %d: buffer B diverged after scratch reuse", round)
		}
	}
}

// TestDetectSteadyStateAllocs bounds the steady-state detect path: with
// the profile and transform buffers owned by the Synchronizer, per-call
// allocations are limited to the returned peak/sync slices and do not
// scale with the buffer length.
func TestDetectSteadyStateAllocs(t *testing.T) {
	cfg := Default()
	small := collisionBuffer(t, cfg, 53, 1<<12)
	large := collisionBuffer(t, cfg, 53, 1<<15)
	sy := NewSynchronizer(cfg)
	sy.Detect(large, 0.002, 0.5, 1) // warm buffers to the largest size
	measure := func(rx []complex128) float64 {
		return testing.AllocsPerRun(20, func() { sy.Detect(rx, 0.002, 0.5, 1) })
	}
	aSmall, aLarge := measure(small), measure(large)
	if aLarge > 12 {
		t.Errorf("steady-state Detect allocates %v times per run, want ≤12 (result slices and sort scratch only)", aLarge)
	}
	if aLarge > aSmall {
		t.Errorf("Detect allocations grow with buffer size (%v → %v); profile buffer not reused", aSmall, aLarge)
	}
	// The profile itself must come from the reusable buffer: Profile
	// (the diagnostic API) returns a fresh copy instead.
	p1 := sy.Profile(small, 0.002)
	p2 := sy.Profile(small, 0.002)
	if &p1[0] == &p2[0] {
		t.Error("Profile returned the internal buffer; successive calls alias")
	}
}

// oneShotDetect is the detection a Synchronizer ran before prepared
// buffers: a one-off fft.Correlate of the buffer against the preamble,
// thresholded by the peak detector.
func oneShotDetect(sy *Synchronizer, rx []complex128, freq, beta, refAmp float64) []Sync {
	prof := fft.Correlate(nil, rx, sy.wave, freq, nil)
	pd := dsp.PeakDetector{Beta: beta, RefAmp: refAmp, MinSpacing: len(sy.wave) / 2}
	var out []Sync
	for _, p := range pd.Find(prof, sy.energy) {
		s := sy.syncFromPeak(p)
		s.Freq = freq
		out = append(out, s)
	}
	return out
}

// sameSyncs is reflect.DeepEqual with nil and empty lists equal.
func sameSyncs(a, b []Sync) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// TestDetectPreparedMatchesOneShot pins the shared-spectrum detection
// pass: a Prepare followed by one DetectPrepared per frequency offset
// reproduces independent one-shot detections exactly, whatever the
// order of the offsets, over buffers on both plan sizes and the naive
// kernel, and when a pass introduces a new offset (a client whose
// frequency estimate changed) after the cache has been filled.
func TestDetectPreparedMatchesOneShot(t *testing.T) {
	cfg := Default()
	sy := NewSynchronizer(cfg)
	ref := NewSynchronizer(cfg)
	bufs := [][]complex128{
		collisionBuffer(t, cfg, 61, 4096),
		collisionBuffer(t, cfg, 62, 300),           // single-block plan
		collisionBuffer(t, cfg, 63, 4096)[150:300], // naive kernel
		collisionBuffer(t, cfg, 64, 2000),
	}
	passes := [][]float64{
		{0.002, -0.003, 0},
		{-0.003, 0.002, 0},
		{0.0025, -0.003, 0}, // a changed offset misses the cache
		{0.002, 0.0025, -0.003, 0},
	}
	for pi, freqs := range passes {
		for bi, rx := range bufs {
			sy.Prepare(rx)
			for _, f := range freqs {
				got := append([]Sync(nil), sy.DetectPrepared(f, 0.5, 1)...)
				want := oneShotDetect(ref, rx, f, 0.5, 1)
				if len(want) == 0 && bi == 0 {
					t.Fatalf("pass %d: nothing detected at %g", pi, f)
				}
				if !sameSyncs(got, want) {
					t.Fatalf("pass %d buffer %d freq %g: prepared %+v, one-shot %+v", pi, bi, f, got, want)
				}
				if d := sy.DetectFor(rx, f, 0.5, 1); !sameSyncs(d, got) {
					t.Fatalf("pass %d buffer %d freq %g: DetectFor %+v, prepared %+v", pi, bi, f, d, got)
				}
				sy.Prepare(rx) // DetectFor ended the pass
			}
		}
	}
}

// BenchmarkDetect times one detection pass — one reception, every
// client — as the online receiver runs it: the reception is prepared
// once and correlated at each client's frequency offset.
func BenchmarkDetect(b *testing.B) {
	cfg := Default()
	rx := collisionBuffer(b, cfg, 70, 3000)
	freqs := []float64{0.003, -0.002}
	sy := NewSynchronizer(cfg)
	b.ReportAllocs()
	for b.Loop() {
		sy.Prepare(rx)
		for _, f := range freqs {
			sy.DetectPrepared(f, 0.5, 1)
		}
	}
}

package core

import (
	"math"
	"sync"

	"zigzag/internal/dsp"
	"zigzag/internal/dsp/fft"
	"zigzag/internal/frame"
	"zigzag/internal/modem"
)

// MatchWindow is the number of samples correlated when checking whether
// two collisions contain the same packet (§4.2.2). Longer windows
// separate same/different packets more sharply; one-to-two preamble
// spans beyond the packet start is ample because payload data dominates.
const MatchWindow = 512

// matchScore correlates reception a aligned at sample position startA
// against reception b aligned at startB. When the packets starting at
// those positions are the same, the windows are highly dependent (they
// differ only in the other colliding packet, noise, carrier phase, and
// the retry flag) and the normalized correlation is large; different
// packets correlate near zero. The window skips the preamble and header
// chips — every packet shares the preamble and most header fields, which
// would otherwise correlate *different* packets too.
func matchScore(cfg Config, a []complex128, startA float64, b []complex128, startB float64) float64 {
	skip := matchSkip(cfg)
	ia, ib := int(startA)+skip, int(startB)+skip
	if ia < 0 || ib < 0 || ia >= len(a) || ib >= len(b) {
		return 0
	}
	n := MatchWindow
	if rest := len(a) - ia; rest < n {
		n = rest
	}
	if rest := len(b) - ib; rest < n {
		n = rest
	}
	if n < 64 {
		return 0
	}
	return dsp.NormalizedCorrelation(a[ia:ia+n], b[ib:ib+n])
}

// MatchPairing describes how the occurrences of two receptions pair up:
// Pairs[i] = j means occurrence i of the first reception carries the
// same packet as occurrence j of the second.
type MatchPairing struct {
	Pairs []int
	// Score is the minimum pairwise correlation across the pairing.
	Score float64
}

// MatchCollisions decides whether two receptions contain the same set of
// packets, trying every assignment of occurrences (collisions involve
// two or three packets, so brute force is fine — and the paper's Fig
// 4-1b flipped-order pattern requires trying the swap). It returns the
// best pairing and whether its score clears the threshold.
func MatchCollisions(cfg Config, a, b *Reception) (MatchPairing, bool) {
	na, nb := len(a.Packets), len(b.Packets)
	if na == 0 || na != nb {
		return MatchPairing{}, false
	}
	perm := make([]int, na)
	for i := range perm {
		perm[i] = i
	}
	best := MatchPairing{Score: -1}
	permute(perm, 0, func(p []int) {
		score := 2.0
		for i, j := range p {
			s := matchScore(cfg, a.Samples, a.Packets[i].Sync.Start, b.Samples, b.Packets[j].Sync.Start)
			if s < score {
				score = s
			}
		}
		if score > best.Score {
			best = MatchPairing{Pairs: append([]int(nil), p...), Score: score}
		}
	})
	return best, best.Score >= cfg.matchThreshold()
}

// permute enumerates permutations of p in place, calling fn for each.
func permute(p []int, k int, fn func([]int)) {
	if k == len(p) {
		fn(p)
		return
	}
	for i := k; i < len(p); i++ {
		p[k], p[i] = p[i], p[k]
		permute(p, k+1, fn)
		p[k], p[i] = p[i], p[k]
	}
}

// LocateResult is one candidate alignment of a stored packet inside a
// new reception.
type LocateResult struct {
	Pos   int     // sample position where the packet starts in the new reception
	Score float64 // normalized correlation
}

// LocatePacket slides a wide data window of a stored collision (starting
// at the stored packet's data region) across a new reception and returns
// the best alignments. This is the §4.2.2 "correlation trick" run at
// full packet-data width instead of preamble width: with a 512-sample
// window it separates same/different packets ~9 dB more sharply than
// preamble correlation, which lets the receiver recover a retransmitted
// packet's position even when its preamble spike was buried.
//
// The returned positions are starts of the packet (the window skip is
// already removed). Up to max candidates are returned, best first, at
// least a preamble apart.
func LocatePacket(cfg Config, stored []complex128, storedStart float64, fresh []complex128, max int) []LocateResult {
	s := locatePool.Get().(*locateScratch)
	defer locatePool.Put(s)
	defer s.reset()
	return locatePacket(cfg, stored, storedStart, fresh, max, nil, s)
}

// locatePool backs one-shot LocatePacket calls, so they reach steady
// state without allocating working storage per call.
var locatePool = sync.Pool{New: func() any { return new(locateScratch) }}

// locateScratch carries the wide-window matcher's reusable working
// storage: the correlation engine's transform buffers, the profile and
// score vectors, and a per-reception cache of the fresh buffers located
// into. Every stored packet is located inside the same fresh reception,
// so each cached buffer keeps its overlap-save block spectra
// (fft.Prepared) and its sliding-window energies across those lookups;
// only the reference side is new per lookup.
type locateScratch struct {
	corr   fft.Scratch
	prof   []complex128
	score  []float64
	fresh  []freshCache
	nFresh int
}

// freshCache is one fresh buffer prepared for a window length: its
// block spectra and its sliding-window energies.
type freshCache struct {
	prep   fft.Prepared
	energy []float64
}

// reset empties the fresh-buffer cache, keeping its storage but
// dropping the references to the cached buffers. Entries are keyed by
// buffer identity, so a caller must reset whenever a buffer it located
// into may have changed — the receiver does at the start of every
// reception.
func (s *locateScratch) reset() {
	for i := range s.fresh[:s.nFresh] {
		s.fresh[i].prep.Prepare(nil, 0)
	}
	s.nFresh = 0
}

// prepared returns the cache entry for fresh at window length w,
// preparing it on first use.
func (s *locateScratch) prepared(fresh []complex128, w int) *freshCache {
	for i := range s.fresh[:s.nFresh] {
		c := &s.fresh[i]
		if y := c.prep.Signal(); c.prep.RefLen() == w && len(y) == len(fresh) && &y[0] == &fresh[0] {
			return c
		}
	}
	if s.nFresh == len(s.fresh) {
		s.fresh = append(s.fresh, freshCache{})
	}
	c := &s.fresh[s.nFresh]
	s.nFresh++
	c.prep.Prepare(fresh, w)
	if cap(c.energy) < len(fresh)-w+1 {
		c.energy = make([]float64, len(fresh)-w+1)
	}
	energy := c.energy[:len(fresh)-w+1]
	var run float64
	for i := 0; i < len(fresh); i++ {
		v := fresh[i]
		run += real(v)*real(v) + imag(v)*imag(v)
		if i >= w {
			u := fresh[i-w]
			run -= real(u)*real(u) + imag(u)*imag(u)
		}
		if i >= w-1 {
			energy[i-w+1] = run
		}
	}
	c.energy = energy
	return c
}

// matchSkip is the number of samples from a packet's start to its
// wide-window data region: the preamble and header chips, which every
// packet shares and which would otherwise correlate different packets.
func matchSkip(cfg Config) int {
	return (cfg.PHY.PreambleBits + modem.SymbolCount(modem.BPSK, frame.HeaderBits)) * cfg.PHY.SamplesPerSymbol
}

// matchRef returns the wide data window of the packet starting at
// storedStart in a stored reception, or nil when too little of it is
// left for a reliable match.
func matchRef(cfg Config, stored []complex128, storedStart float64) []complex128 {
	is := int(storedStart) + matchSkip(cfg)
	if is < 0 || is >= len(stored) {
		return nil
	}
	w := MatchWindow
	if rest := len(stored) - is; rest < w {
		w = rest
	}
	if w < 128 {
		return nil
	}
	return stored[is : is+w]
}

// locatePacket is LocatePacket with the working storage threaded in;
// the online Receiver passes its own locateScratch so repeated store
// lookups allocate nothing in steady state. refSpec, when non-nil, is
// the window's precomputed fft.RefSpectrum (the receiver keeps one per
// stored packet); it is used only when its length matches the plan
// size of this lookup.
func locatePacket(cfg Config, stored []complex128, storedStart float64, fresh []complex128, max int, refSpec []complex128, s *locateScratch) []LocateResult {
	skip := matchSkip(cfg)
	ref := matchRef(cfg, stored, storedStart)
	if ref == nil {
		return nil
	}
	refE := dsp.Energy(ref)
	if refE == 0 || len(fresh) < len(ref) {
		return nil
	}
	fc := s.prepared(fresh, len(ref))
	s.prof = fc.prep.Correlate(s.prof, ref, 0, refSpec, &s.corr)
	prof, energy := s.prof, fc.energy
	// Normalize per position by the local window energy, once; the
	// greedy passes below then only compare.
	if cap(s.score) < len(prof) {
		s.score = make([]float64, len(prof))
	}
	score := s.score[:len(prof)]
	for i := range prof {
		if energy[i] > 0 {
			m := real(prof[i])*real(prof[i]) + imag(prof[i])*imag(prof[i])
			score[i] = m / (refE * energy[i])
		}
	}
	// Pick peaks greedily, spaced at least a preamble apart.
	minSp := cfg.PHY.PreambleBits * cfg.PHY.SamplesPerSymbol
	var out []LocateResult
	for len(out) < max {
		best, bi := 0.0, -1
		for i, sc := range score {
			if energy[i] <= 0 || sc <= best {
				continue
			}
			tooClose := false
			for _, o := range out {
				if abs(i-skip-o.Pos) < minSp {
					tooClose = true
					break
				}
			}
			if !tooClose {
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

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

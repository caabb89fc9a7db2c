package phy

import (
	"errors"
	"fmt"

	"zigzag/internal/frame"
	"zigzag/internal/modem"
)

// Errors returned by the receiver.
var (
	// ErrNoSync means no preamble was detected in the buffer.
	ErrNoSync = errors.New("phy: no preamble detected")
	// ErrTruncated means the buffer ends before the announced frame does.
	ErrTruncated = errors.New("phy: buffer shorter than announced frame")
	// ErrEmptyFit means an ISI fit's chunk range holds no samples of
	// the residual (it lies wholly past either end of the buffer).
	ErrEmptyFit = errors.New("phy: ISI fit range outside the residual")
)

// DecodeResult carries everything a decode attempt produced, whether or
// not it passed the checksum. The evaluation needs the raw bits even for
// failed decodes (bit error rate is measured against the ground truth,
// §5.1f).
type DecodeResult struct {
	// Frame is the parsed frame, nil unless the CRC passed.
	Frame *frame.Frame
	// Bits are the demapped bits (header+payload+CRC), possibly wrong.
	Bits []byte
	// Decisions and Soft are the per-symbol outputs of the decoder for
	// the frame body (excluding the preamble), exposed without copying:
	// both alias the producing Receiver's reusable decode arenas and
	// are valid only until the next decode on that receiver. A caller
	// that retains them across decodes (e.g. to accumulate soft values
	// over a sweep) owns the copy: append([]complex128(nil), res.Soft...).
	Decisions []complex128
	Soft      []complex128
	// Sync is the synchronization the decode used.
	Sync Sync
	// Err records why the decode failed (nil on success).
	Err error
}

// OK reports whether the decode produced a checksum-valid frame.
func (r *DecodeResult) OK() bool { return r != nil && r.Frame != nil && r.Err == nil }

// Receiver is the standard "current 802.11" receiver (§5.1e): it
// synchronizes on the strongest preamble and decodes assuming no
// collision. ZigZag embeds the same chain per chunk; the baseline uses it
// for whole packets.
//
// A Receiver reuses one body decoder (and the preamble constellation)
// across decodes, so it must not be shared by concurrent goroutines —
// its Synchronizer's correlation scratch already imposes the same rule.
// DecodeResults it produces share that lifecycle: their Decisions/Soft
// views alias the receiver's decode arenas (see DecodeResult).
type Receiver struct {
	Config
	Sync *Synchronizer

	body    *SymbolDecoder
	preSyms []complex128

	// decArena/softArena back the Decisions/Soft views of the results
	// this receiver produces: the symbol decoder's header and body
	// outputs land in its own scratch (overwritten by the body pass),
	// so results accumulate here instead of in per-decode allocations.
	decArena  []complex128
	softArena []complex128
}

// NewReceiver builds a standard receiver.
func NewReceiver(cfg Config) *Receiver {
	return &Receiver{Config: cfg, Sync: NewSynchronizer(cfg), preSyms: cfg.PreambleSymbols()}
}

// newBodyDecoder builds a symbol decoder for a sync and trains its
// equalizer on the preamble. The decoder is the receiver's pooled one,
// valid until the next decode on this receiver; results copy out of it
// before returning.
func (r *Receiver) newBodyDecoder(rx []complex128, s Sync, scheme modem.Scheme) *SymbolDecoder {
	if r.body == nil {
		r.body = NewSymbolDecoder(r.Config, s, scheme)
	} else {
		r.body.Reinit(r.Config, s, scheme)
	}
	d := r.body
	if !r.DisableEqualizer {
		// Equalizer training failure (degenerate buffers) falls back to
		// the pass-through equalizer, which is the right degradation.
		if r.preSyms == nil {
			r.preSyms = r.PreambleSymbols()
		}
		_ = d.TrainEqualizer(rx, r.preSyms, 0)
	}
	return d
}

// DecodeAt decodes a frame whose preamble starts at the given sync,
// reading the length from the decoded header. It returns a result even
// when the CRC fails so callers can account bit errors.
func (r *Receiver) DecodeAt(rx []complex128, s Sync, scheme modem.Scheme) *DecodeResult {
	res := &DecodeResult{Sync: s}
	d := r.newBodyDecoder(rx, s, scheme)
	pre := r.PreambleBits
	hdrSyms := modem.SymbolCount(scheme, frame.HeaderBits)
	hdrDec, hdrSoft := d.DecodeRange(rx, pre, pre+hdrSyms, false)
	bits := modem.Demodulate(nil, scheme, hdrDec)
	res.Decisions = append(r.decArena[:0], hdrDec...)
	res.Soft = append(r.softArena[:0], hdrSoft...)
	totalBits, err := frame.PeekLength(bits)
	if err != nil {
		r.decArena, r.softArena = res.Decisions, res.Soft
		res.Bits = bits
		res.Err = fmt.Errorf("phy: header unreadable: %w", err)
		return res
	}
	return r.finishDecode(rx, d, res, bits, totalBits)
}

// DecodeKnownLength decodes a frame of a known bit length at the sync,
// skipping the header length field. The evaluation uses it to measure the
// BER of decoders whose header decode would fail outright (e.g. current
// 802.11 on a heavy collision), matching the paper's per-bit accounting
// (§5.4).
func (r *Receiver) DecodeKnownLength(rx []complex128, s Sync, scheme modem.Scheme, totalBits int) *DecodeResult {
	res := &DecodeResult{Sync: s}
	res.Decisions = r.decArena[:0]
	res.Soft = r.softArena[:0]
	d := r.newBodyDecoder(rx, s, scheme)
	return r.finishDecode(rx, d, res, nil, totalBits)
}

func (r *Receiver) finishDecode(rx []complex128, d *SymbolDecoder, res *DecodeResult, gotBits []byte, totalBits int) *DecodeResult {
	scheme := d.Scheme()
	pre := r.PreambleBits
	totalSyms := modem.SymbolCount(scheme, totalBits)
	doneSyms := len(res.Decisions)
	endSample := int(d.Sync().Start) + (pre+totalSyms)*r.SamplesPerSymbol
	if endSample > len(rx) {
		r.decArena, r.softArena = res.Decisions, res.Soft
		res.Err = ErrTruncated
		return res
	}
	dec, soft := d.DecodeRange(rx, pre+doneSyms, pre+totalSyms, false)
	res.Decisions = append(res.Decisions, dec...)
	res.Soft = append(res.Soft, soft...)
	r.decArena, r.softArena = res.Decisions, res.Soft
	res.Bits = append(gotBits, modem.Demodulate(nil, scheme, dec)...)
	if len(res.Bits) > totalBits {
		res.Bits = res.Bits[:totalBits]
	}
	f, err := frame.Parse(res.Bits)
	if err != nil {
		res.Err = err
		return res
	}
	res.Frame = f
	return res
}

// Receive runs the full standard-receiver pipeline on a buffer: detect
// the strongest preamble for a sender with coarse frequency offset freq,
// then decode from it. beta/refAmp parameterize the detector threshold
// as in Detect.
func (r *Receiver) Receive(rx []complex128, scheme modem.Scheme, freq, beta, refAmp float64) (*DecodeResult, error) {
	syncs := r.Sync.DetectFor(rx, freq, beta, refAmp)
	if len(syncs) == 0 {
		return nil, ErrNoSync
	}
	best := syncs[0]
	for _, s := range syncs[1:] {
		if s.Mag > best.Mag {
			best = s
		}
	}
	return r.DecodeAt(rx, best, scheme), nil
}

package core

import (
	"sync/atomic"

	"zigzag/internal/obs"
	"zigzag/internal/phy"
)

// matchLeg is the pairwise store-match stage of one reception, run on a
// helper goroutine. The paper's AP (§5.1d) both tries to decode every
// collision on its own and looks it up in the collision store; the two
// do not depend on each other, so the leg aligns each stored collision
// inside the fresh reception and joint-decodes the pair while the
// caller's goroutine runs detection and the single-reception cascade.
//
// The leg's results are consumed in store order, exactly as a
// sequential loop would produce them, so decoded bits and the event
// stream do not depend on scheduling: the leg emits nothing itself, it
// buffers its events for the caller to replay at the point the
// sequential loop emitted them. If the single-reception decode
// delivers, the leg is cancelled at its next stage boundary and its
// work is dropped unseen.
//
// While the leg runs it reads the stored collisions, the client table
// and the amplitude-aging state, and it borrows the receiver's
// locateScratch. Until it joins the leg, the caller's goroutine only
// reads the client table and aging state (detection) and leaves the
// store and the locateScratch alone; the first write to the client
// table (learn, on delivery) comes after the join. The leg owns
// everything it writes: its Synchronizer, a second decode session, the
// metadata and pair buffers, and the results.
type matchLeg struct {
	sync  *phy.Synchronizer
	dec   Scratch
	metas []PacketMeta
	pair  [2]*Reception

	// entries holds one result per stored collision processed, in store
	// order; evs the buffered events, entry i's ending at entries[i].evHi.
	entries []legEntry
	evs     []legEvent

	cancel   atomic.Bool
	done     chan struct{}
	running  bool
	panicked bool
	panicV   any

	// hook, when non-nil, runs on the leg goroutine at every stage
	// boundary before the cancel check (tests only).
	hook func(si int, stage legStage)
}

// legStage names a stage boundary of the leg.
type legStage uint8

const (
	legAlign  legStage = iota // before aligning stored collision si
	legDecode                 // before joint-decoding stored collision si
)

// legEntry is the leg's outcome for one stored collision.
type legEntry struct {
	aligned bool
	jres    *Result // when aligned
	err     error
	evHi    int
}

// legEvent is one buffered event. Decoder events went to the typed
// sink only (the decoder never feeds the Trace adapter); the leg's own
// events replay through Receiver.emit like any receiver event.
type legEvent struct {
	ev      obs.Event
	decoder bool
}

// Emit buffers a decoder chunk event (the leg's decode session reports
// here instead of to the receiver's sink).
func (l *matchLeg) Emit(ev obs.Event) {
	l.evs = append(l.evs, legEvent{ev: ev, decoder: true})
}

// stop reports whether the leg should stop before stage of stored
// collision si.
func (l *matchLeg) stop(si int, stage legStage) bool {
	if l.hook != nil {
		l.hook(si, stage)
	}
	return l.cancel.Load()
}

// startLeg launches the store-match leg for reception rx.
func (z *Receiver) startLeg(rx []complex128) {
	l := &z.leg
	if l.done == nil {
		l.done = make(chan struct{}, 1)
	}
	l.evs = l.evs[:0]
	l.cancel.Store(false)
	l.dec.Obs, l.dec.ObsRec = nil, int64(z.recSeq)
	if z.Obs != nil {
		l.dec.Obs = l
	}
	l.running = true
	go z.runLeg(rx)
}

// runLeg is the leg's body: for each stored collision in store order,
// align it inside rx, then joint-decode the pair; stop at the first
// decode that is fully OK.
func (z *Receiver) runLeg(rx []complex128) {
	l := &z.leg
	defer func() {
		if v := recover(); v != nil {
			l.panicked, l.panicV = true, v
		}
		l.done <- struct{}{}
	}()
	for si, st := range z.stored {
		if l.stop(si, legAlign) {
			return
		}
		joint, ok := z.alignStored(st, rx, l)
		e := legEntry{aligned: ok}
		if ok {
			if l.stop(si, legDecode) {
				return
			}
			l.metas = z.metasInto(l.metas, st.clients)
			l.pair = [2]*Reception{st.rec, joint}
			e.jres, e.err = DecodeWith(&l.dec, z.cfg, l.metas, l.pair[:])
		}
		e.evHi = len(l.evs)
		l.entries = append(l.entries, e)
		if ok && e.err == nil && e.jres.AllOK() {
			return
		}
	}
}

// joinLeg waits for a running leg to finish — first asking it to stop
// at its next stage boundary when cancel is set — and re-raises on the
// caller's goroutine any panic the leg hit.
func (z *Receiver) joinLeg(cancel bool) {
	l := &z.leg
	if !l.running {
		return
	}
	if cancel {
		l.cancel.Store(true)
	}
	<-l.done
	l.running = false
	if cancel {
		l.entries = l.entries[:0]
	}
	if l.panicked {
		v := l.panicV
		l.panicked, l.panicV = false, nil
		panic(v)
	}
}

// replayLeg emits the leg's buffered events [lo, hi) in order.
func (z *Receiver) replayLeg(lo, hi int) {
	for i := lo; i < hi; i++ {
		le := &z.leg.evs[i]
		if le.decoder {
			z.Obs.Emit(le.ev)
		} else {
			z.emit(le.ev)
		}
	}
}

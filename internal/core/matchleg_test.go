package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"zigzag/internal/obs"
	"zigzag/internal/phy"
)

// legWorkload renders a store-match workload for the two clients of
// scenario a: collisions of two different packet pairs (a, b) and their
// retransmissions, a clean packet that decodes alone while two
// collisions are stored (recs[4]), and a reception of pure silence. It
// exercises failed alignments, failed and successful joint decodes,
// forced captures and both cancel paths of the match leg.
func legWorkload(t *testing.T) (*scenario, [][]complex128) {
	t.Helper()
	const noise = 0.05
	a := newScenario(t, 23, 300, []float64{13, 13}, []float64{0.004, -0.003}, noise)
	b := newScenario(t, 31, 300, []float64{13, 13}, []float64{0.004, -0.003}, noise)
	rng := rand.New(rand.NewSource(24))
	return a, [][]complex128{
		a.render(t, rng, noise, []int{40, 40 + 700}),
		a.render(t, rng, noise, []int{40, 40 + 260}),
		b.render(t, rng, noise, []int{40, 40 + 600}),
		b.render(t, rng, noise, []int{40, 40 + 580}),
		a.render(t, rng, noise, []int{60, -1}),
		make([]complex128, 3000),
		b.render(t, rng, noise, []int{40, 40 + 650}),
		a.render(t, rng, noise, []int{40, 40 + 500}),
		b.render(t, rng, noise, []int{40, 40 + 350}),
		a.render(t, rng, noise, []int{40, 40 + 150}),
	}
}

// legStream runs the workload through one receiver with both observers
// attached and returns the whole observable output as text: every typed
// event with all its operands, every Trace line, and every delivered
// event, in emission order.
func legStream(t *testing.T, hook func(si int, stage legStage)) string {
	t.Helper()
	a, recs := legWorkload(t)
	z := NewReceiver(a.cfg, onlineClients(a))
	z.leg.hook = hook
	var out []byte
	z.Obs = obs.SinkFunc(func(ev obs.Event) { out = fmt.Appendf(out, "E %+v\n", ev) })
	z.Trace = func(format string, args ...any) { out = fmt.Appendf(out, "T "+format+"\n", args...) }
	for i, rx := range recs {
		for _, ev := range z.Receive(rx) {
			out = fmt.Appendf(out, "R%d via=%v client=%d frame=%v\n", i, ev.Via, ev.Client, ev.Frame != nil)
		}
	}
	return string(out)
}

// The workload's stream as the sequential store-match loop (no helper,
// events emitted directly) produced it: its length and FNV-1a hash.
const (
	legStreamLen  = 66625
	legStreamHash = 0xad5789683eec8c7a
)

// TestMatchLegEventStreamIdentity pins the leg's event buffering: the
// observable stream — typed events, Trace lines, deliveries — equals the
// one the sequential loop emitted, however the leg's stages interleave
// with the caller's goroutine (here: unhindered, and slowed at every
// stage boundary so the caller always finishes first).
func TestMatchLegEventStreamIdentity(t *testing.T) {
	for _, c := range []struct {
		name string
		hook func(int, legStage)
	}{
		{"free", nil},
		{"slowed", func(int, legStage) { time.Sleep(300 * time.Microsecond) }},
	} {
		s := legStream(t, c.hook)
		h := fnv.New64a()
		h.Write([]byte(s))
		if len(s) != legStreamLen || h.Sum64() != legStreamHash {
			t.Errorf("%s: event stream len %d hash %#x, want the sequential loop's len %d hash %#x",
				c.name, len(s), h.Sum64(), legStreamLen, uint64(legStreamHash))
		}
	}
}

// TestMatchLegCancelledWhenSingleDelivers drives the cancel path: two
// undecodable collisions are stored, then a clean packet arrives. The
// caller's goroutine is held right after detection until the leg has
// finished its first stored entry, and the leg is then held at its
// second entry until the single-reception decode has delivered and
// asked it to stop. The leg must stop at that boundary, its work must
// leave no trace in the event stream, and the store must be untouched.
func TestMatchLegCancelledWhenSingleDelivers(t *testing.T) {
	a, recs := legWorkload(t)
	z := NewReceiver(a.cfg, onlineClients(a))
	for _, rx := range recs[:4] {
		z.Receive(rx)
	}
	if z.StoredCollisions() != 2 {
		t.Fatalf("%d stored collisions, want 2", z.StoredCollisions())
	}
	const patience = 10 * time.Second
	reached := make(chan struct{})
	var sawCancel atomic.Bool
	var stages atomic.Int32
	z.leg.hook = func(si int, stage legStage) {
		stages.Add(1)
		if si != 1 {
			return
		}
		close(reached)
		// The cancel flag has no channel to wait on; poll it.
		deadline := time.Now().Add(patience)
		for !z.leg.cancel.Load() && time.Now().Before(deadline) {
			time.Sleep(20 * time.Microsecond)
		}
		sawCancel.Store(z.leg.cancel.Load())
	}
	var kinds []obs.Kind
	legMidFlight := false
	z.Obs = obs.SinkFunc(func(ev obs.Event) {
		kinds = append(kinds, ev.Kind)
		if ev.Kind == obs.KindDetect {
			select {
			case <-reached:
				legMidFlight = true
			case <-time.After(patience):
			}
		}
	})
	evs := z.Receive(recs[4])
	if len(evs) != 1 || evs[0].Frame == nil || evs[0].Via != ViaStandard {
		t.Fatalf("clean packet: events %+v, want one standard delivery", evs)
	}
	if !legMidFlight || !sawCancel.Load() {
		t.Fatalf("leg held at entry 1 during the single decode: %v, saw cancel there: %v", legMidFlight, sawCancel.Load())
	}
	if z.leg.running || len(z.leg.entries) != 0 {
		t.Errorf("leg not joined and cleared: running %v, %d entries", z.leg.running, len(z.leg.entries))
	}
	for _, k := range kinds {
		switch k {
		case obs.KindAlignCand, obs.KindStoreAlignFail, obs.KindStorePktErr, obs.KindStoreErr, obs.KindStoreJointOK:
			t.Errorf("cancelled leg leaked a %v event", k)
		}
	}
	if z.StoredCollisions() != 2 {
		t.Errorf("%d stored collisions after the clean packet, want 2", z.StoredCollisions())
	}
	// Entry 0 went through align (and maybe decode) before the hold;
	// nothing ran past entry 1's first boundary.
	if n := stages.Load(); n < 2 || n > 3 {
		t.Errorf("leg crossed %d stage boundaries, want 2 or 3", n)
	}
}

// TestMatchLegPanicSurfacesFromPollOne pins the failure contract: a
// panic on the leg goroutine is re-raised on the caller's goroutine by
// PollOne (where the serve engine's per-reception recovery sees it),
// and the receiver stays usable afterwards.
func TestMatchLegPanicSurfacesFromPollOne(t *testing.T) {
	a, recs := legWorkload(t)
	z := NewReceiver(a.cfg, onlineClients(a))
	z.SetStream(StreamConfig{})
	z.Ingest(streamOf(phy.DefaultIdleGap+17, recs[0], recs[1], recs[2]))
	z.FlushStream()
	if _, _, ok := z.PollOne(); !ok {
		t.Fatal("nothing framed")
	}
	z.leg.hook = func(int, legStage) { panic("leg boom") }
	func() {
		defer func() {
			if v := recover(); v != "leg boom" {
				t.Errorf("PollOne recovered %v, want the leg's panic", v)
			}
		}()
		z.PollOne()
		t.Error("PollOne returned normally")
	}()
	if z.leg.running {
		t.Fatal("leg still marked running after the re-raised panic")
	}
	z.leg.hook = nil
	if _, _, ok := z.PollOne(); !ok {
		t.Fatal("receiver unusable after the leg panic")
	}
}

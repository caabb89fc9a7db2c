package main

import (
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// epoch is the zero of monoNs, the clock every measured pass stamps its
// completions with.
var epoch = time.Now()

func monoNs() int64 { return int64(time.Since(epoch)) }

// hostSampler watches the host while a measured pass runs: the peak live
// heap (bytes marked live by the most recent GC, every 5 ms) and the CPU
// time the hypervisor stole from the VM (/proc/stat, every 100 ms).
type hostSampler struct {
	quit, done chan struct{}
	start, end int64
	peak       uint64
	steal      []stealSample
}

type stealSample struct{ ns, jiffies int64 }

func startHostSampler() *hostSampler {
	runtime.GC() // start from the set-up's live heap, not its garbage
	h := &hostSampler{quit: make(chan struct{}), done: make(chan struct{}), start: monoNs(), peak: liveHeap()}
	h.steal = append(h.steal, stealSample{h.start, stolenJiffies()})
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for tick := 1; ; tick++ {
			select {
			case <-h.quit:
				return
			case <-t.C:
				h.peak = max(h.peak, liveHeap())
				if tick%20 == 0 {
					h.steal = append(h.steal, stealSample{monoNs(), stolenJiffies()})
				}
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak live heap in MB (1e6 bytes).
func (h *hostSampler) stop() float64 {
	close(h.quit)
	<-h.done
	h.end = monoNs()
	h.steal = append(h.steal, stealSample{h.end, stolenJiffies()})
	runtime.GC()
	h.peak = max(h.peak, liveHeap())
	return float64(h.peak) / 1e6
}

func liveHeap() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// stolenJiffies returns the VM's cumulative steal time from /proc/stat,
// or 0 where the host does not report it.
func stolenJiffies() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// calmWindows is how many equal windows a pass is cut into when choosing
// the samples its timings are computed from.
const calmWindows = 20

// calm marks, for each sample completion time (monoNs), whether it fell
// in a calm window of the sampled pass: one of the share (by count) of
// windows in which the host stole the least CPU from the VM, ties kept,
// so all of the pass on a host that steals nothing. On a shared VM the
// hypervisor takes the vCPUs away for tens of milliseconds at a time,
// in bursts that come and go within a run; window by window the median
// latency rises with the stolen time, which the program did not cause.
func (h *hostSampler) calm(times []int64, share float64) []bool {
	width := float64(h.end-h.start) / calmWindows
	stolen := make([]int64, calmWindows)
	for w := range stolen {
		a := h.start + int64(float64(w)*width)
		b := h.start + int64(float64(w+1)*width)
		stolen[w] = h.stolenAt(b) - h.stolenAt(a)
	}
	sorted := append([]int64(nil), stolen...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	limit := sorted[max(int(share*calmWindows+0.5), 1)-1]
	mask := make([]bool, len(times))
	for i, t := range times {
		w := min(max(int(float64(t-h.start)/width), 0), calmWindows-1)
		mask[i] = stolen[w] <= limit
	}
	return mask
}

// stolenAt is the steal counter at the last sample taken at or before ns.
func (h *hostSampler) stolenAt(ns int64) int64 {
	i := sort.Search(len(h.steal), func(i int) bool { return h.steal[i].ns > ns })
	if i == 0 {
		return h.steal[0].jiffies
	}
	return h.steal[i-1].jiffies
}

// stolenMs is the CPU time stolen over the whole pass (at USER_HZ=100).
func (h *hostSampler) stolenMs() float64 {
	return float64(h.steal[len(h.steal)-1].jiffies-h.steal[0].jiffies) * 10
}

// masked returns the xs whose mask entry is set.
func masked(xs []float64, mask []bool) []float64 {
	var out []float64
	for i, x := range xs {
		if mask[i] {
			out = append(out, x)
		}
	}
	return out
}

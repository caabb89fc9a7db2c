// Command perfbench is the repository benchmark. It runs one of three
// workloads against the ZigZag receiver stack and prints, as the last
// line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set (what a user of the
// AP or of the campaign engine sees); with -trace 1 they are the
// per-layer set, measured in a separate traced pass by timing the
// benchmark's own calls into public functions and by component probes
// on the workload's own inputs. The program under test is not
// instrumented.
//
// Workloads (see workloads.go for the parameters):
//
//   - ap-pairs: k=2 hidden-pair streams offered open-loop at a fixed
//     sample rate; latency is timed from each reception's due time.
//   - ap-kway3: k=3 streams ingested closed-loop; store matching
//     dominates and the collision store fills.
//   - campaign-city: campaign.Run on the full-scale city geometry at
//     nproc workers; offline joint decode, no framing or matching.
//
// Every input is generated from -seed. Every run checks its outputs:
// the AP workloads against serve.Engine on the same pre-rendered
// stream, the campaign against a one-worker re-run, and all three
// against the digests recorded in expect.json.
//
// Usage (from the repository root; run.sh builds first):
//
//	bash perfbench/run.sh --workload ap-pairs --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"
)

// metricSpec names one reported metric and its unit. The lists below
// mirror BENCHMARK.json (a test keeps them in step).
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
	{"latency_p50_ms", "ms"},
	{"frames_per_s", "1/s"},
	{"trials_per_s", "1/s"},
}

// perLayer also carries the tail latencies: on the reference VM the
// hypervisor's CPU steal moves p90 by up to 0.28 and p99 by 0.2-0.35 of
// its median between runs, more than any bound an end-to-end metric may
// have, so they are reported without one.
var perLayer = []metricSpec{
	{"latency_p90_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"core.ingest.ns_per_sample", "ns"},
	{"core.poll.ms_mean", "ms"},
	{"core.poll.ms_p99", "ms"},
	{"core.poll.standard_ms", "ms"},
	{"core.poll.zigzag_ms", "ms"},
	{"core.poll.capture_ms", "ms"},
	{"core.poll.stored_ms", "ms"},
	{"core.poll.allocs_per_reception", "count"},
	{"core.store.depth_max", "count"},
	{"core.poll.panics", "count"},
	{"serve.queue_wait_ms_p99", "ms"},
	{"serve.backlog_max_chunks", "count"},
	{"serve.generator_lag_ms_max", "ms"},
	{"phy.detect.ms_per_reception", "ms"},
	{"phy.detect.allocs_per_reception", "count"},
	{"core.match.ms_per_locate", "ms"},
	{"core.match.allocs_per_locate", "count"},
	{"dsp.fft.us_per_correlate", "us"},
	{"dsp.fft.allocs_per_correlate", "count"},
	{"core.sic.ms_per_decode", "ms"},
	{"core.sic.allocs_per_decode", "count"},
	{"phy.sync.us_per_measure", "us"},
	{"channel.mix_us_per_reception", "us"},
	{"runner.speedup_nproc", "ratio"},
	{"campaign.allocs_per_trial", "count"},
	{"delivery_ratio", "ratio"},
	{"ber", "ratio"},
	{"episode_failure_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"share.ingest", "ratio"},
	{"share.detect", "ratio"},
	{"share.match", "ratio"},
	{"share.sic", "ratio"},
	{"share.sync", "ratio"},
	{"share.channel", "ratio"},
	{"share.gc", "ratio"},
	{"share.other", "ratio"},
}

// result is what a workload run hands back to main.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
	// mismatch is non-empty when an output check failed.
	mismatch []string
	// notes are human-readable lines printed before the JSON line.
	notes []string
}

func (r *result) set(name string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]float64{}
	}
	r.metrics[name] = v
}

func (r *result) failf(format string, args ...any) {
	r.mismatch = append(r.mismatch, fmt.Sprintf(format, args...))
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: ap-pairs, ap-kway3 or campaign-city")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measured-phase length the inputs are sized for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced pass with per-layer metrics")
	recordExpect := fs.Bool("record-expect", false, "print the recorded-output table for expect.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *recordExpect {
		return printExpect(stdout, stderr)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	opt := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	res, err := w(opt)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opt.workload, err)
		return 1
	}
	return report(stdout, stderr, opt, res)
}

// report prints the metric table and the JSON line. A failed output
// check still prints its result (correct: false) and fails the run.
func report(stdout, stderr io.Writer, opt options, res *result) int {
	specs := endToEnd
	if opt.trace {
		specs = perLayer
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{Correct: len(res.mismatch) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricOut{}}
	for _, n := range res.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, s := range specs {
		v, ok := res.metrics[s.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", opt.workload, s.name)
			return 1
		}
		out.Metrics[s.name] = metricOut{Value: v, Unit: s.unit}
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", s.name, v, s.unit)
	}
	for _, m := range res.mismatch {
		fmt.Fprintln(stderr, "perfbench: output check failed:", m)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// timeSetup runs setup reps times, keeping the last result and
// releasing the others, and returns the median duration in seconds.
func timeSetup[T any](reps int, setup func() (T, error), release func(T)) (T, float64, error) {
	var zero, last T
	durs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			release(last)
			last = zero
			runtime.GC()
		}
		t0 := time.Now()
		v, err := setup()
		durs = append(durs, time.Since(t0).Seconds())
		if err != nil {
			return zero, 0, err
		}
		last = v
	}
	return last, median(durs), nil
}

// allocCounter reads the process's cumulative heap allocation count
// without stopping the world; the sample slice is reused so reading
// allocates nothing.
type allocCounter struct{ s []rtmetrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (a *allocCounter) read() uint64 {
	rtmetrics.Read(a.s)
	return a.s[0].Value.Uint64()
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

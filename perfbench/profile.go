package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
)

// cpuProfile runs fn under the runtime CPU profiler and returns the
// gzipped profile.proto bytes.
func cpuProfile(fn func()) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}

// Layers a CPU sample is charged to. A sample goes to the outermost
// frame on its stack that names a layer entry point, so work a layer
// delegates (fft under the store matcher, preamble measurement under
// alignment) stays with the layer that asked for it.
var shareLayers = []string{"ingest", "detect", "match", "sic", "sync", "channel", "gc", "other"}

var layerEntries = []struct{ prefix, layer string }{
	{"zigzag/internal/core.(*Receiver).Ingest", "ingest"},
	{"zigzag/internal/core.(*Receiver).FlushStream", "ingest"},
	{"zigzag/internal/core.(*Receiver).detect", "detect"},
	{"zigzag/internal/phy.(*Synchronizer).Detect", "detect"},
	{"zigzag/internal/core.locatePacket", "match"},
	{"zigzag/internal/core.LocatePacket", "match"},
	{"zigzag/internal/core.(*Receiver).alignStored", "match"},
	{"zigzag/internal/core.(*Receiver).kwayCandidates", "match"},
	{"zigzag/internal/core.MatchCollisions", "match"},
	{"zigzag/internal/dsp/fft.Correlate", "match"},
	{"zigzag/internal/core.Decode", "sic"},
	{"zigzag/internal/core.DecodeWith", "sic"},
	{"zigzag/internal/core.(*Receiver).decodeSingleReception", "sic"},
	{"zigzag/internal/session.(*Session).Decode", "sic"},
	{"zigzag/internal/phy.(*Synchronizer).Measure", "sync"},
	{"zigzag/internal/channel.", "channel"},
	{"zigzag/internal/session.(*Session).Mix", "channel"},
	{"zigzag/internal/session.(*Session).Waveform", "channel"},
	{"runtime.gcBgMarkWorker", "gc"},
	{"runtime.gcAssistAlloc", "gc"},
	{"runtime.bgsweep", "gc"},
	{"runtime.bgscavenge", "gc"},
	{"runtime.mallocgc", "gc"},
}

func layerOf(fn string) string {
	for _, e := range layerEntries {
		if strings.HasPrefix(fn, e.prefix) {
			return e.layer
		}
	}
	return ""
}

// shares records the per-layer CPU shares of a traced pass as
// share.* metrics, prints the table stamped with the host, and writes
// it to .bench_build/shares-<workload>.json.
func shares(res *result, workload string, prof []byte) {
	counts, total, err := layerSamples(prof)
	if err != nil {
		res.notef("# share table unavailable: %v", err)
	}
	table := map[string]float64{}
	for _, l := range shareLayers {
		v := 0.0
		if total > 0 {
			v = float64(counts[l]) / float64(total)
		}
		table[l] = v
		res.set("share."+l, v)
	}
	h := hostStamp()
	res.notef("# layer CPU shares, %s (%d samples; nproc %d, %s, GOAMD64=%s):", workload, total, h.Nproc, h.CPU, h.GOAMD64)
	for _, l := range shareLayers {
		res.notef("#   %-8s %5.1f%%", l, 100*table[l])
	}
	out := struct {
		Workload string             `json:"workload"`
		Host     host               `json:"host"`
		Samples  int64              `json:"samples"`
		Shares   map[string]float64 `json:"shares"`
	}{workload, h, total, table}
	b, _ := json.MarshalIndent(out, "", "  ")
	path := filepath.Join(".bench_build", "shares-"+workload+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		_ = os.WriteFile(path, append(b, '\n'), 0o644) // a convenience copy; the table is printed above
	}
}

type host struct {
	Nproc   int    `json:"nproc"`
	CPU     string `json:"cpu"`
	GOAMD64 string `json:"goamd64"`
	GOOS    string `json:"goos"`
	GOARCH  string `json:"goarch"`
}

func hostStamp() host {
	h := host{Nproc: nproc(), CPU: "unknown", GOAMD64: "v1", GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if v := os.Getenv("GOAMD64"); v != "" {
		h.GOAMD64 = v
	}
	return h
}

// layerSamples decodes a gzipped profile.proto and counts its samples
// per layer. Only the fields the attribution needs are read: samples
// (location ids, values), locations (line → function id), functions
// (name) and the string table.
func layerSamples(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id → function ids, innermost first
	funcName := map[uint64]int64{}    // function id → string index
	var strs []string
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					if b != nil {
						return packed(b, func(x uint64) { s.locs = append(s.locs, x) })
					}
					s.locs = append(s.locs, v)
				case 2: // values: [samples, cpu ns]
					if b != nil {
						return packed(b, func(x uint64) { vals = append(vals, x) })
					}
					vals = append(vals, v)
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		layer := "other"
		// Walk root to leaf; the outermost layer entry wins.
	walk:
		for i := len(s.locs) - 1; i >= 0; i-- {
			fns := locFuncs[s.locs[i]]
			for j := len(fns) - 1; j >= 0; j-- {
				idx := funcName[fns[j]]
				if idx < 0 || int(idx) >= len(strs) {
					continue
				}
				if l := layerOf(strs[idx]); l != "" {
					layer = l
					break walk
				}
			}
		}
		counts[layer] += s.count
		total += s.count
	}
	return counts, total, nil
}

var errProto = errors.New("malformed profile")

// protoFields walks one protobuf message, calling fn with each field's
// number and either its varint value (b == nil) or its bytes.
func protoFields(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
		default:
			return errProto
		}
	}
	return nil
}

func packed(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

package serve

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCaptureRoundTripComplex128 pins the bit-exact format: every
// float64 bit pattern survives the file.
func TestCaptureRoundTripComplex128(t *testing.T) {
	in := []complex128{
		0, 1, -1i, complex(0.25, -0.75),
		complex(math.SmallestNonzeroFloat64, -math.MaxFloat64),
		complex(math.Inf(1), math.Copysign(0, -1)),
	}
	var buf bytes.Buffer
	w, err := NewCaptureWriter(&buf, FormatComplex128)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(in); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if want := captureHeader + 16*len(in); buf.Len() != want {
		t.Fatalf("capture is %d bytes, want %d", buf.Len(), want)
	}

	r, err := NewCaptureReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Format() != FormatComplex128 {
		t.Fatalf("format = %v", r.Format())
	}
	out := readAll(t, r)
	if len(out) != len(in) {
		t.Fatalf("read %d samples, want %d", len(out), len(in))
	}
	for i := range in {
		// Bit-level comparison: NaN/±0 safe.
		if math.Float64bits(real(in[i])) != math.Float64bits(real(out[i])) ||
			math.Float64bits(imag(in[i])) != math.Float64bits(imag(out[i])) {
			t.Fatalf("sample %d: %v != %v", i, out[i], in[i])
		}
	}
}

// TestCaptureRoundTripComplex64 pins the compact format: half the
// bytes, float32 precision.
func TestCaptureRoundTripComplex64(t *testing.T) {
	in := []complex128{complex(1.0/3.0, -2.0/7.0), complex(1e-20, 1e20)}
	var buf bytes.Buffer
	w, err := NewCaptureWriter(&buf, FormatComplex64)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(in); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if want := captureHeader + 8*len(in); buf.Len() != want {
		t.Fatalf("capture is %d bytes, want %d", buf.Len(), want)
	}
	r, err := NewCaptureReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	out := readAll(t, r)
	for i := range in {
		want := complex(float64(float32(real(in[i]))), float64(float32(imag(in[i]))))
		if out[i] != want {
			t.Fatalf("sample %d: %v != float32-rounded %v", i, out[i], want)
		}
	}
}

// TestCaptureHeaderValidation covers the reject paths.
func TestCaptureHeaderValidation(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"short", []byte("ZIQ"), "header"},
		{"magic", []byte("NOPE\x01\x00\x00\x00"), "magic"},
		{"version", []byte("ZIQ1\x02\x00\x00\x00"), "version"},
		{"format", []byte("ZIQ1\x01\x07\x00\x00"), "format"},
	}
	for _, c := range cases {
		_, err := NewCaptureReader(bytes.NewReader(c.data))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
	if _, err := NewCaptureWriter(io.Discard, SampleFormat(9)); err == nil {
		t.Fatalf("writer accepted unknown format")
	}
}

// TestCaptureTruncatedMidSample pins that a torn tail is an error, not
// a silent drop.
func TestCaptureTruncatedMidSample(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewCaptureWriter(&buf, FormatComplex128)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write([]complex128{1 + 2i}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-5]
	r, err := NewCaptureReader(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	p := make([]complex128, 4)
	if _, err := r.Read(p); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("torn capture read err = %v, want truncation error", err)
	}
}

// TestCaptureReplayIdentity is the trace-replay contract: recording a
// synthetic stream to a ZIQ1 file and replaying it through the engine
// yields the same frame digest as serving the stream directly.
func TestCaptureReplayIdentity(t *testing.T) {
	sc := SynthConfig{Seed: 5, Episodes: 4}
	g, err := NewSynthetic(sc)
	if err != nil {
		t.Fatal(err)
	}
	stream := readAll(t, g)
	clients := g.Clients()
	g.Close()

	path := filepath.Join(t.TempDir(), "trace.ziq")
	w, err := CreateCapture(path, FormatComplex128)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(stream); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(captureHeader+16*len(stream)) {
		t.Fatalf("capture file stat %v size mismatch", err)
	}

	run := func(src Source) *Report {
		clk := &fakeClock{}
		e := NewEngine(Config{Clients: clients, Now: clk.now})
		defer e.Close()
		rep, err := e.Run(src)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rep
	}
	direct := run(&sliceSource{buf: stream})
	r, err := OpenCapture(path)
	if err != nil {
		t.Fatal(err)
	}
	replay := run(r)
	r.Close()

	if direct.Frames == 0 {
		t.Fatalf("no frames decoded from the direct stream")
	}
	if direct.FrameDigest != replay.FrameDigest || direct.Frames != replay.Frames {
		t.Fatalf("replay diverged: direct digest %#x (%d frames) vs replay %#x (%d frames)",
			direct.FrameDigest, direct.Frames, replay.FrameDigest, replay.Frames)
	}
}

// FuzzCaptureReader feeds arbitrary bytes through NewCaptureReader and
// then Read in chunks of 1…64 samples. Neither may panic; the header is
// accepted exactly when it is a valid ZIQ1 header; every Read returns
// 0 ≤ n ≤ len(p); and the stream yields every whole sample of the body
// before ending in io.EOF, or in the documented truncation error when
// the body ends mid-sample. The committed corpus under testdata/fuzz
// holds a valid complex128 and complex64 capture, a bad magic, a bad
// version and a mid-sample truncation.
func FuzzCaptureReader(f *testing.F) {
	f.Add([]byte("ZIQ1\x01\x00\x00\x00"), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		r, err := NewCaptureReader(bytes.NewReader(data))
		validHeader := len(data) >= captureHeader && string(data[:4]) == captureMagic &&
			data[4] == captureVersion && (data[5] == byte(FormatComplex128) || data[5] == byte(FormatComplex64))
		if (err == nil) != validHeader {
			t.Fatalf("header %q: NewCaptureReader err = %v, valid = %v", data[:min(len(data), captureHeader)], err, validHeader)
		}
		if err != nil {
			return
		}
		sz := r.Format().sampleSize()
		body := len(data) - captureHeader
		p := make([]complex128, int(chunk)%64+1)
		total := 0
		for {
			n, err := r.Read(p)
			if n < 0 || n > len(p) {
				t.Fatalf("Read returned n = %d for a %d-sample buffer", n, len(p))
			}
			total += n
			if err == io.EOF {
				if body%sz != 0 {
					t.Fatalf("body of %d bytes ends mid-sample but Read reported a clean EOF", body)
				}
				break
			}
			if err != nil {
				if body%sz == 0 || !strings.Contains(err.Error(), "truncated mid-sample") {
					t.Fatalf("Read error %v on a %d-byte body of %d-byte samples", err, body, sz)
				}
				break
			}
			if total > body/sz {
				t.Fatalf("read %d samples from a body of %d whole samples", total, body/sz)
			}
		}
		if total != body/sz {
			t.Fatalf("read %d samples, want %d", total, body/sz)
		}
	})
}

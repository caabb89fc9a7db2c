//go:build amd64 && !purego

package fft

// haveFFTAsm gates the SSE2 butterfly kernels (see fft_amd64.s). The
// amd64 baseline (GOAMD64=v1) guarantees SSE2, so there is no runtime
// feature detection; the purego tag restores the Go kernels.
const haveFFTAsm = true

// fwdStage4Asm is fwdStage4Go on x[:n] with the twiddle triples at tw.
//
//go:noescape
func fwdStage4Asm(x *complex128, n, size int, tw *complex128)

// invStage4Asm is invStage4Go on x[:n] with the twiddle triples at tw.
//
//go:noescape
func invStage4Asm(x *complex128, n, size int, tw *complex128)

// fwd8Asm is fwd8Go on blocks (≥ 1) 8-blocks at x.
//
//go:noescape
func fwd8Asm(x *complex128, blocks int)

// inv8MulAsm is inv8MulGo on blocks (≥ 1) 8-blocks; x may alias src.
//
//go:noescape
func inv8MulAsm(x, src, spec *complex128, blocks int)

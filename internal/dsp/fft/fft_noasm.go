//go:build !amd64 || purego

package fft

// haveFFTAsm is false off amd64 (or under the purego tag): the
// transforms run entirely on the Go butterfly kernels.
const haveFFTAsm = false

// The asm entry points are never called when haveFFTAsm is false; the
// stubs keep the dispatch sites compiling on every platform.

func fwdStage4Asm(x *complex128, n, size int, tw *complex128) {
	panic("fft: fwdStage4Asm without asm support")
}

func invStage4Asm(x *complex128, n, size int, tw *complex128) {
	panic("fft: invStage4Asm without asm support")
}

func fwd8Asm(x *complex128, blocks int) {
	panic("fft: fwd8Asm without asm support")
}

func inv8MulAsm(x, src, spec *complex128, blocks int) {
	panic("fft: inv8MulAsm without asm support")
}

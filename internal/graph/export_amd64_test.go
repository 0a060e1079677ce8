package graph

// SetVectorKernels turns the AVX2 min-plus kernels on or off and returns
// the previous setting. Tests that call it must not run in parallel.
func SetVectorKernels(on bool) (was bool) {
	was, useAVX2 = useAVX2, on
	return was
}

// HasVectorKernels reports whether this CPU can run the AVX2 kernels.
func HasVectorKernels() bool { return cpuHasAVX2() }

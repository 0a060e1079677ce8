package graph

import (
	"slices"
	"testing"
)

// KernelLevels names the min-plus kernel levels, narrowest first.
var KernelLevels = levelNames[:]

// HasKernelLevel reports whether this CPU runs the named kernel level.
func HasKernelLevel(name string) bool {
	l := slices.Index(KernelLevels, name)
	return l >= 0 && l <= cpuKernelLevel()
}

// AtKernelLevel runs fn with the named min-plus kernel level selected and
// then restores the previous one. It panics on a level this CPU lacks.
// Tests that call it must not run in parallel.
func AtKernelLevel(name string, fn func()) {
	if !HasKernelLevel(name) {
		panic("graph: CPU without kernel level " + name)
	}
	defer func(was int) { kernelLevel = was }(kernelLevel)
	kernelLevel = slices.Index(KernelLevels, name)
	fn()
}

// ForVectorLevels runs fn as a subtest per vector kernel level (avx2,
// avx512), named after it. A level this CPU lacks skips its subtest with
// a message naming it.
func ForVectorLevels(t *testing.T, fn func(t *testing.T, level string)) {
	for _, name := range KernelLevels[1:] {
		t.Run(name, func(t *testing.T) {
			if !HasKernelLevel(name) {
				t.Skipf("CPU without %s: its kernel bodies are not checked", name)
			}
			fn(t, name)
		})
	}
}

// vectorLevels returns the vector kernel levels this CPU runs and logs
// the ones it lacks, for fuzz targets, which have no subtests.
func vectorLevels(tb testing.TB) []string {
	var have []string
	for _, name := range KernelLevels[1:] {
		if HasKernelLevel(name) {
			have = append(have, name)
		} else {
			tb.Logf("CPU without %s: its kernel bodies are not checked", name)
		}
	}
	return have
}

package mat

import (
	"runtime"
	"testing"
)

// TestKernelPath logs the path the hand-written kernels take on this host,
// so a CI log names the path its tests ran, and pins the switch tests use:
// the scalar path is always available, an unknown path is refused, and off
// amd64 the AVX-512 path never is.
func TestKernelPath(t *testing.T) {
	t.Logf("the flat walk, the drift search and the window push take the %s path (GOARCH %s)", KernelPath(), runtime.GOARCH)
	if runtime.GOARCH != "amd64" && KernelPath() != ScalarPath {
		t.Fatalf("%s path on %s", KernelPath(), runtime.GOARCH)
	}
	host := KernelPath()
	if prev, ok := SetKernelPath("sse"); ok || prev != host || KernelPath() != host {
		t.Fatalf("SetKernelPath(sse) = %s, %v; path now %s", prev, ok, KernelPath())
	}
	if prev, ok := SetKernelPath(ScalarPath); !ok || prev != host || KernelPath() != ScalarPath || AVX512() {
		t.Fatalf("SetKernelPath(scalar) = %s, %v; path now %s", prev, ok, KernelPath())
	}
	if _, ok := SetKernelPath(host); !ok || KernelPath() != host || AVX512() != (host == AVX512Path) {
		t.Fatalf("could not restore the %s path", host)
	}
}

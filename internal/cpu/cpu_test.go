package cpu

import (
	"os"
	"runtime"
	"testing"
)

// TestAVX2ConsistentWithSupport: the dispatchable view can only ever be a
// restriction of raw hardware support, and support only exists on amd64
// builds that include the assembly.
func TestAVX2ConsistentWithSupport(t *testing.T) {
	if AVX2() && !AVX2Supported() {
		t.Fatal("AVX2() true but AVX2Supported() false")
	}
	if AVX2Supported() && runtime.GOARCH != "amd64" {
		t.Fatalf("AVX2Supported() true on GOARCH=%s", runtime.GOARCH)
	}
}

// TestAVX512ImpliesAVX2: the ZMM tier sits on top of the YMM one, so
// AVX-512 support (raw or dispatchable) never appears without AVX2.
func TestAVX512ImpliesAVX2(t *testing.T) {
	if AVX512() && !AVX512Supported() {
		t.Fatal("AVX512() true but AVX512Supported() false")
	}
	if AVX512Supported() && !AVX2Supported() {
		t.Fatal("AVX512Supported() true but AVX2Supported() false")
	}
	if AVX512() && !AVX2() {
		t.Fatal("AVX512() true but AVX2() false")
	}
}

// TestNoSIMDOverride: when SMOL_NOSIMD was set at process start, nothing
// may dispatch to vector kernels regardless of hardware support.
func TestNoSIMDOverride(t *testing.T) {
	if os.Getenv("SMOL_NOSIMD") == "" {
		t.Skip("SMOL_NOSIMD not set for this process")
	}
	if AVX2() || AVX512() {
		t.Fatal("vector kernels dispatchable despite SMOL_NOSIMD override")
	}
}

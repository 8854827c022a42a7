// Package cpu is the single CPU-feature detection point for the SIMD
// kernels in internal/tensor. Detection runs once at init on amd64: CPUID
// leaf 7 for AVX2 and AVX-512F, each gated on OSXSAVE + XGETBV so the OS
// actually preserves the vector state across context switches — XCR0 bits
// 1–2 (XMM, YMM) for AVX2, and additionally bits 5–7 (opmask, the upper
// halves of ZMM0–15, ZMM16–31) for AVX-512. Every other architecture — and
// any build with the noasm tag — reports no vector support and the
// portable kernels carry the whole workload.
//
// One override knob: setting the SMOL_NOSIMD environment variable (to any
// non-empty value) disables every vector kernel, AVX2 and AVX-512 alike, at
// process start, turning the whole binary into its own
// portable-equivalence oracle without a rebuild. The one finer-grained
// toggle lives with its kernel tier: see tensor.SetF32SIMD (what smol-query
// -nosimd and the equivalence tests flip).
package cpu

import "os"

// hasAVX2 and hasAVX512 are set by the amd64 detection init; they stay
// false on other architectures and under the noasm build tag. hasAVX512
// implies hasAVX2.
var hasAVX2, hasAVX512 bool

// simdDisabled is the process-wide kill switch, read once from
// SMOL_NOSIMD at init.
var simdDisabled = os.Getenv("SMOL_NOSIMD") != ""

// AVX2 reports whether AVX2 kernels may be dispatched: the CPU and OS
// support them and SMOL_NOSIMD did not veto them.
func AVX2() bool { return hasAVX2 && !simdDisabled }

// AVX2Supported reports raw CPU+OS support, ignoring the SMOL_NOSIMD
// override. Kernels that keep their own runtime toggle (so an oracle can
// flip back and forth) key their capability on this.
func AVX2Supported() bool { return hasAVX2 }

// AVX512 reports whether AVX-512F (ZMM) kernels may be dispatched: the CPU
// and OS support them and SMOL_NOSIMD did not veto them.
func AVX512() bool { return hasAVX512 && !simdDisabled }

// AVX512Supported reports raw CPU+OS AVX-512F support, ignoring the
// SMOL_NOSIMD override, like AVX2Supported.
func AVX512Supported() bool { return hasAVX512 }

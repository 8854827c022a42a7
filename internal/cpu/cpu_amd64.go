//go:build amd64 && !noasm

package cpu

func init() { hasAVX2, hasAVX512 = detect() }

// cpuid executes CPUID for the given leaf and subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the set of processor states the OS has enabled.
func xgetbv0() uint64

// detect reports whether the CPU and the OS support AVX2 (leaf-1
// OSXSAVE+AVX, XCR0 XMM+YMM state enabled, leaf-7 AVX2) and, on top of
// that, AVX-512F (leaf-7 AVX512F, XCR0 opmask+ZMM_Hi256+Hi16_ZMM state
// enabled).
func detect() (avx2, avx512 bool) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false, false
	}
	const xmmYmm = 0x6
	const opmaskZmm = 0xe0
	xcr0 := xgetbv0()
	if xcr0&xmmYmm != xmmYmm {
		return false, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	avx2 = ebx7&(1<<5) != 0
	avx512 = avx2 && ebx7&(1<<16) != 0 && xcr0&opmaskZmm == opmaskZmm
	return avx2, avx512
}

package jpeg

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// serialDecodeBlock is the per-symbol block decode with no fused or skip
// lookups: one decode plus one readBits per symbol. It is the oracle of
// decodeCoeffs and keeps the same coefficients (the lowest sub x sub
// frequencies for sub > 1, none for sub 0 and 1).
func serialDecodeBlock(d *decoder, comp, sub int) error {
	c := &d.comps[comp]
	br := &d.br
	sym, err := d.dcTab[c.dcSel].decode(br)
	if err != nil {
		return err
	}
	bits, err := br.readBits(sym)
	if err != nil {
		return err
	}
	d.dcPred[comp] += extendMagnitude(bits, sym)
	if sub > 1 {
		for v := 0; v < sub; v++ {
			clear(d.coeffs[v*blockSize : v*blockSize+sub])
		}
		d.coeffs[0] = d.dcPred[comp]
	}
	keep := &keepCoeff[sub]
	ac := d.acTab[c.acSel]
	for k := 1; k < 64; {
		sym, err := ac.decode(br)
		if err != nil {
			return err
		}
		run := int(sym >> 4)
		size := sym & 0xf
		if size == 0 {
			if run == 15 { // ZRL
				k += 16
				continue
			}
			break // EOB
		}
		k += run
		if k > 63 {
			return errors.New("jpeg: AC coefficient index overflow")
		}
		bits, err := br.readBits(size)
		if err != nil {
			return err
		}
		if keep[k] {
			d.coeffs[zigzag[k]] = extendMagnitude(bits, size)
		}
		k++
	}
	return nil
}

// bitCursor counts the entropy bits a bitReader has consumed, whatever it
// has buffered ahead: data bytes moved past (stuffed zero bytes and
// restart markers excluded) times 8, minus the bits still buffered.
type bitCursor struct{ pos, bytes int }

func (c *bitCursor) consumed(br *bitReader) int {
	for c.pos < br.pos {
		if br.data[c.pos] == 0xff && c.pos+1 < br.pos {
			c.pos += 2 // stuffing or a restart marker: at most one data byte
			if br.data[c.pos-1] == 0x00 {
				c.bytes++
			}
			continue
		}
		c.pos++
		c.bytes++
	}
	return 8*c.bytes - int(br.n)
}

// compareBlockDecode entropy-decodes the parsed scan of d block by block
// twice, through decodeCoeffs and through serialDecodeBlock, keeping the
// coefficients of a sub x sub reconstruction (sub 0: none, as for blocks
// outside the ROI). At every block both must return the same error, DC
// predictor, kept coefficients and consumed bit count. It returns the
// number of blocks compared.
func compareBlockDecode(t testing.TB, name string, d *decoder, sub int) int {
	t.Helper()
	fast, slow := *d, *d
	fast.br = bitReader{data: d.data[d.scanStart:]}
	slow.br = bitReader{data: d.data[d.scanStart:]}
	var fastBits, slowBits bitCursor
	order, mcu := []int{0, 1, 2}, blockSize
	if d.comps[0].hSamp == 2 {
		order, mcu = []int{0, 0, 0, 0, 1, 2}, 16
	}
	mcus := ((d.width + mcu - 1) / mcu) * ((d.height + mcu - 1) / mcu)
	blocks := 0
	for idx := 0; idx < mcus; idx++ {
		if d.restartInterval > 0 && idx > 0 && idx%d.restartInterval == 0 {
			errF, errS := fast.br.syncToRestart(), slow.br.syncToRestart()
			if fmt.Sprint(errF) != fmt.Sprint(errS) {
				t.Fatalf("%s sub %d MCU %d: restart error %v, oracle %v", name, sub, idx, errF, errS)
			}
			if errS != nil {
				return blocks
			}
			fast.dcPred, slow.dcPred = [3]int32{}, [3]int32{}
		}
		for _, comp := range order {
			errF := fast.decodeCoeffs(comp, sub)
			errS := serialDecodeBlock(&slow, comp, sub)
			blocks++
			where := func() string { return fmt.Sprintf("%s sub %d MCU %d block %d", name, sub, idx, blocks) }
			if fmt.Sprint(errF) != fmt.Sprint(errS) {
				t.Fatalf("%s: error %v, oracle %v", where(), errF, errS)
			}
			if fast.dcPred != slow.dcPred {
				t.Fatalf("%s: DC predictors %v, oracle %v", where(), fast.dcPred, slow.dcPred)
			}
			if f, s := fastBits.consumed(&fast.br), slowBits.consumed(&slow.br); f != s {
				t.Fatalf("%s: consumed %d bits, oracle %d", where(), f, s)
			}
			for v := 0; sub > 1 && v < sub; v++ {
				for u := 0; u < sub; u++ {
					if i := v*blockSize + u; fast.coeffs[i] != slow.coeffs[i] {
						t.Fatalf("%s: coefficient (%d,%d) = %d, oracle %d", where(), u, v, fast.coeffs[i], slow.coeffs[i])
					}
				}
			}
			if errS != nil {
				return blocks
			}
		}
	}
	return blocks
}

// blockSubs are the coefficient windows compareBlockDecode checks: every
// decode scale with reconstruction, and none (a block outside the ROI).
var blockSubs = []int{8, 4, 2, 1, 0}

// compareParsedBlocks parses data and, if it parses and defines every
// table its scan references, compares the block decode against the serial
// oracle for every window in blockSubs.
func compareParsedBlocks(t testing.TB, name string, data []byte) int {
	t.Helper()
	var dec Decoder
	if _, _, err := dec.Parse(data); err != nil || dec.d.checkScanTables() != nil {
		return 0
	}
	dec.d.buildSkipTables()
	blocks := 0
	for _, sub := range blockSubs {
		blocks += compareBlockDecode(t, name, &dec.d, sub)
	}
	return blocks
}

// randomTableDecoder returns a 4:4:4 decoder state over a scan of random
// blocks coded with acSpec (and the Annex K DC table), then damaged. The
// symbols are drawn at random, so end-of-block, ZRL and overflowing runs
// fall anywhere.
func randomTableDecoder(rng *rand.Rand, acSpec huffSpec) *decoder {
	dcEnc, acEnc := buildEncHuff(stdDCLuma), buildEncHuff(acSpec)
	var bw bitWriter
	mcus := 1 + rng.Intn(24)
	for b := 0; b < 3*mcus; b++ {
		sym := stdDCLuma.values[rng.Intn(len(stdDCLuma.values))]
		bw.writeBits(dcEnc.code[sym], dcEnc.size[sym])
		bw.writeBits(uint16(rng.Intn(1<<sym)), sym)
		for n := rng.Intn(48); n > 0; n-- {
			sym := acSpec.values[rng.Intn(len(acSpec.values))]
			bw.writeBits(acEnc.code[sym], acEnc.size[sym])
			bw.writeBits(uint16(rng.Intn(1<<(sym&0xf))), sym&0xf)
		}
	}
	bw.flush()
	d := &decoder{data: damage(rng, bw.buf), width: mcus * blockSize, height: blockSize}
	for i := range d.comps {
		d.comps[i] = component{hSamp: 1, vSamp: 1}
	}
	d.dcTab[0], d.acTab[0] = buildDecHuff(stdDCLuma), buildDecHuff(acSpec)
	d.buildSkipTables()
	return d
}

// TestDecodeBlockMatchesSerialOracle: the fused and skip-table block decode
// must keep the coefficients, DC predictors and bit positions of the
// per-symbol oracle and fail with the same error at the same block, at
// every scale with and without reconstruction, over the golden corpus,
// every prefix of the truncation input, the bit-flip inputs and scans
// coded with random canonical AC tables.
func TestDecodeBlockMatchesSerialOracle(t *testing.T) {
	blocks := 0
	for _, s := range goldenCorpus() {
		blocks += compareParsedBlocks(t, s.name, s.data)
	}
	enc := truncationInput()
	for n := 0; n <= len(enc); n++ {
		blocks += compareParsedBlocks(t, fmt.Sprintf("prefix %d", n), enc[:n])
	}
	for i, data := range bitFlipInputs() {
		blocks += compareParsedBlocks(t, fmt.Sprintf("bit flip %d", i), data)
	}
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < 400; i++ {
		spec := stdACLuma
		if i%4 != 0 {
			spec = randomHuffSpec(rng)
		}
		d := randomTableDecoder(rng, spec)
		for _, sub := range blockSubs {
			blocks += compareBlockDecode(t, fmt.Sprintf("random table %d", i), d, sub)
		}
	}
	if blocks < 100_000 {
		t.Fatalf("compared only %d blocks", blocks)
	}
}

// TestSkipTableMatchesSerialWalk: every skip entry must equal a serial
// walk of its skipBits bits: whole symbols (code plus magnitude bits) in
// order, stopping at the first that does not fit or is not a code, or
// after an end-of-block. The tables are
// Annex K's and random canonical ones, and the entries must include ZRL
// chains and codes longer than lookupBits.
func TestSkipTableMatchesSerialWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	specs := []huffSpec{stdACLuma, stdACChroma}
	for i := 0; i < 200; i++ {
		specs = append(specs, randomHuffSpec(rng))
	}
	var zrlChains, longCodes, eobs int
	for si, spec := range specs {
		h := buildDecHuff(spec)
		h.buildSkip()
		for v := range h.skip {
			br := &bitReader{acc: uint64(v), n: skipBits}
			var want uint16
			adv, zrls := 0, 0
			for {
				before := br.n
				sym, err := serialDecode(h, br)
				if err != nil {
					break
				}
				codeLen := before - br.n
				size := sym & 0xf
				if _, err := serialReadBits(br, size); err != nil {
					break
				}
				if codeLen > lookupBits {
					longCodes++
				}
				used := uint16(skipBits - br.n)
				if size == 0 && sym>>4 != 15 {
					want = used | uint16(adv)<<skipAdvShift | skipEOB
					eobs++
					break
				}
				if adv += int(sym>>4) + 1; size == 0 {
					if zrls++; zrls > 1 {
						zrlChains++
					}
				}
				want = used | uint16(adv)<<skipAdvShift
			}
			if h.skip[v] != want {
				t.Fatalf("spec %d: skip[%012b] = %#x, serial walk %#x", si, v, h.skip[v], want)
			}
		}
	}
	if zrlChains == 0 || longCodes == 0 || eobs == 0 {
		t.Fatalf("walks covered %d ZRL chains, %d codes longer than %d bits, %d EOBs; want each > 0",
			zrlChains, longCodes, lookupBits, eobs)
	}
}

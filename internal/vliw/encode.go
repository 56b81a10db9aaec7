package vliw

import (
	"encoding/binary"
	"fmt"
	"math"

	"ghostbusters/internal/riscv"
)

// Binary encoding of translated blocks. Each syllable packs into one
// 64-bit word; immediates that do not fit in 16 bits go through a
// per-block constant pool (the long-immediate mechanism of wide VLIWs).
// The speculative memory operations keep distinct opcodes in the encoded
// form, as the paper requires of the VLIW ISA.
//
// The encoding has two users: Config.VerifyEncoding in the dbt package
// executes every block in its decoded form, and the persistent
// translation cache (internal/tcache) stores blocks on disk in this form,
// which is why DecodeBlock treats its input as untrusted.
//
// Word layout (LSB first):
//
//	[0:5)   kind      (5 bits)
//	[5:13)  op        (8 bits)
//	[13:19) dst       (6 bits)
//	[19:25) ra        (6 bits)
//	[25:31) rb        (6 bits)
//	[31:35) tag       (4 bits)
//	[35:47) rec+1     (12 bits, 0 = none)
//	[47]    immPool   (1 = imm is a pool index)
//	[48:64) imm16 / pool index
//
// GuestPC is not part of the binary encoding. The translation cache
// keeps it in a side table next to the block image, because
// self-modifying-code invalidation and fault attribution need it.
const blockMagic = 0x3130574C49564247 // "GBVLIW01", little-endian

// EncodeBlock serialises a block to its binary form.
func EncodeBlock(b *Block) ([]byte, error) {
	var pool []uint64
	poolIdx := make(map[int64]int)
	encSyll := func(s *Syllable) (uint64, error) {
		if s.Kind > KCommit {
			return 0, fmt.Errorf("vliw: cannot encode kind %d", s.Kind)
		}
		if s.Dst > 63 || s.Ra > 63 || s.Rb > 63 {
			return 0, fmt.Errorf("vliw: register out of range in %s", s)
		}
		if s.Tag > 15 {
			return 0, fmt.Errorf("vliw: tag %d out of range", s.Tag)
		}
		if s.Rec < -1 || s.Rec >= 1<<12-2 {
			return 0, fmt.Errorf("vliw: recovery index %d out of range", s.Rec)
		}
		w := uint64(s.Kind) | uint64(s.Op)<<5 | uint64(s.Dst)<<13 |
			uint64(s.Ra)<<19 | uint64(s.Rb)<<25 | uint64(s.Tag)<<31 |
			uint64(s.Rec+1)<<35
		if s.Imm >= -(1<<15) && s.Imm < 1<<15 {
			w |= uint64(uint16(s.Imm)) << 48
		} else {
			idx, ok := poolIdx[s.Imm]
			if !ok {
				idx = len(pool)
				pool = append(pool, uint64(s.Imm))
				poolIdx[s.Imm] = idx
			}
			if idx >= 1<<16 {
				return 0, fmt.Errorf("vliw: constant pool overflow")
			}
			w |= 1<<47 | uint64(idx)<<48
		}
		return w, nil
	}

	width := 0
	if len(b.Bundles) > 0 {
		width = len(b.Bundles[0])
	}
	if width > NumRegs || len(b.Bundles) > math.MaxUint32 || len(b.Recoveries) > math.MaxUint32 {
		return nil, fmt.Errorf("vliw: block shape %d bundles x %d, %d recoveries out of range",
			len(b.Bundles), width, len(b.Recoveries))
	}
	if b.GuestInsts < 0 || b.GuestInsts > math.MaxUint32 {
		return nil, fmt.Errorf("vliw: guest instruction count %d out of range", b.GuestInsts)
	}
	for i, bun := range b.Bundles {
		if len(bun) != width {
			return nil, fmt.Errorf("vliw: bundle %d has width %d, want %d", i, len(bun), width)
		}
	}

	var words []uint64
	words = append(words, blockMagic, b.EntryPC, b.FallPC,
		uint64(uint32(b.GuestInsts))|uint64(width)<<32,
		uint64(uint32(len(b.Bundles)))|uint64(uint32(len(b.Recoveries)))<<32)
	// Reserve header; syllables appended after pool is known? Pool grows
	// while encoding, so encode syllables first into a scratch list.
	var body []uint64
	for _, bun := range b.Bundles {
		for i := range bun {
			w, err := encSyll(&bun[i])
			if err != nil {
				return nil, err
			}
			body = append(body, w)
		}
	}
	for _, rec := range b.Recoveries {
		body = append(body, uint64(len(rec)))
		for i := range rec {
			w, err := encSyll(&rec[i])
			if err != nil {
				return nil, err
			}
			body = append(body, w)
		}
	}
	words = append(words, body...)
	words = append(words, uint64(len(pool)))
	words = append(words, pool...)

	out := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(out[8*i:], w)
	}
	return out, nil
}

// DecodeBlock parses the binary form produced by EncodeBlock. The image
// may come from disk (the persistent translation cache), so every length
// is checked before it is used, in arithmetic that cannot overflow: a
// corrupt or hostile image yields an error, never a panic or a huge
// allocation. Any block DecodeBlock accepts re-encodes to an image that
// decodes to the same block.
func DecodeBlock(data []byte) (*Block, error) {
	if len(data)%8 != 0 || len(data) < 6*8 {
		return nil, fmt.Errorf("vliw: truncated block image")
	}
	n := len(data) / 8
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(data[8*i:]) }
	if word(0) != blockMagic {
		return nil, fmt.Errorf("vliw: bad magic %#x", word(0))
	}
	b := &Block{EntryPC: word(1), FallPC: word(2)}
	b.GuestInsts = int(uint32(word(3)))
	width := word(3) >> 32
	nBundles := uint64(uint32(word(4)))
	nRec := word(4) >> 32
	if width > NumRegs || (width == 0 && nBundles > 0) {
		return nil, fmt.Errorf("vliw: bad bundle width %d", width)
	}
	// width <= 64 and nBundles < 2^32, so the product cannot overflow.
	if nBundles*width > uint64(n-5) {
		return nil, fmt.Errorf("vliw: truncated bundle table")
	}
	bodyEnd := 5 + int(nBundles*width)

	// The pool sits at the end; locate it by walking the recoveries.
	// Each step advances rp by at least one word and is bounded by n,
	// which also bounds nRec before anything is allocated from it.
	rp := bodyEnd
	for r := uint64(0); r < nRec; r++ {
		if rp >= n || word(rp) >= uint64(n-rp) {
			return nil, fmt.Errorf("vliw: truncated recovery table")
		}
		rp += 1 + int(word(rp))
	}
	if rp >= n {
		return nil, fmt.Errorf("vliw: missing constant pool")
	}
	poolLen := word(rp)
	if poolLen != uint64(n-rp-1) {
		return nil, fmt.Errorf("vliw: pool length mismatch")
	}
	pool := data[8*(rp+1):]

	decSyll := func(w uint64, s *Syllable) error {
		s.Kind = Kind(w & 0x1F)
		if s.Kind > KCommit {
			return fmt.Errorf("vliw: bad kind %d", s.Kind)
		}
		s.Op = riscv.Op(uint8(w >> 5 & 0xFF))
		s.Dst = uint8(w >> 13 & 0x3F)
		s.Ra = uint8(w >> 19 & 0x3F)
		s.Rb = uint8(w >> 25 & 0x3F)
		s.Tag = uint8(w >> 31 & 0xF)
		s.Rec = int16(w>>35&0xFFF) - 1
		if s.Rec >= 1<<12-2 {
			return fmt.Errorf("vliw: recovery index %d out of range", s.Rec)
		}
		idx := uint16(w >> 48)
		if w>>47&1 == 1 {
			if uint64(idx) >= poolLen {
				return fmt.Errorf("vliw: pool index %d out of range", idx)
			}
			s.Imm = int64(binary.LittleEndian.Uint64(pool[8*int(idx):]))
		} else {
			s.Imm = int64(int16(idx))
		}
		return nil
	}

	// One backing array holds every syllable, bundles first; the walk
	// above sized it (the recovery words minus their length prefixes).
	sylls := make([]Syllable, rp-5-int(nRec))
	pos := 5
	take := func(m int) ([]Syllable, error) {
		part := sylls[:m:m]
		sylls = sylls[m:]
		for j := range part {
			if err := decSyll(word(pos), &part[j]); err != nil {
				return nil, err
			}
			pos++
		}
		return part, nil
	}
	if nBundles > 0 {
		b.Bundles = make([]Bundle, nBundles)
	}
	for i := range b.Bundles {
		bun, err := take(int(width))
		if err != nil {
			return nil, err
		}
		b.Bundles[i] = bun
	}
	if nRec > 0 {
		b.Recoveries = make([][]Syllable, nRec)
	}
	for r := range b.Recoveries {
		m := int(word(pos))
		pos++
		rec, err := take(m)
		if err != nil {
			return nil, err
		}
		b.Recoveries[r] = rec
	}
	return b, nil
}

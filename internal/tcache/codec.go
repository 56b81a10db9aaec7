package tcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"ghostbusters/internal/vliw"
)

// On-disk document (schema ghostbusters/tcache/v2). Every integer is an
// unsigned varint unless noted; strings and byte blobs carry a uvarint
// length prefix.
//
//	schema  string
//	key     string            Key.Full, verified on load
//	count   uvarint           number of regions
//	count × region:
//	  pc, flags, lo, hi, specLoads, riskyLoads, guardEdges
//	  block   bytes           vliw.EncodeBlock image
//	  pcs     varint...       GuestPC of every syllable, bundles first,
//	                          then recoveries, as zig-zag deltas from the
//	                          previous one (the first from pc)
//
// The block encoding drops GuestPC, so the side table restores it:
// self-modifying-code invalidation and fault attribution need it, and
// neighbouring syllables usually share or step a few bytes from the
// previous guest PC, so most deltas fit in one byte. A document must be
// consumed exactly; trailing bytes are corruption.

// Region flag bits.
const (
	flagTrace = 1 << iota
	flagNoMemSpec
	flagPattern
	flagMask = flagTrace | flagNoMemSpec | flagPattern
)

// minRegionBytes is the smallest encoded region: seven one-byte fields,
// a one-byte length prefix and an empty block's 48-byte image.
const minRegionBytes = 7 + 1 + 48

// errForeign marks a well-framed document written for another schema or
// key: a cold run, but not a disk fault.
var errForeign = errors.New("foreign document")

// encodeDocument serialises one key's region set.
func encodeDocument(key string, regions []*Region) ([]byte, error) {
	out := appendString(nil, Schema)
	out = appendString(out, key)
	out = binary.AppendUvarint(out, uint64(len(regions)))
	for _, rg := range regions {
		if rg.Block == nil {
			return nil, fmt.Errorf("region %#x has no block", rg.PC)
		}
		img, err := vliw.EncodeBlock(rg.Block)
		if err != nil {
			return nil, fmt.Errorf("region %#x: %w", rg.PC, err)
		}
		var flags uint64
		if rg.Trace {
			flags |= flagTrace
		}
		if rg.NoMemSpec {
			flags |= flagNoMemSpec
		}
		if rg.Pattern {
			flags |= flagPattern
		}
		for _, v := range [...]uint64{rg.PC, flags, rg.Lo, rg.Hi,
			uint64(rg.SpecLoads), uint64(rg.RiskyLoads), uint64(rg.GuardEdges)} {
			out = binary.AppendUvarint(out, v)
		}
		out = binary.AppendUvarint(out, uint64(len(img)))
		out = append(out, img...)
		prev := rg.PC
		eachSyllable(rg.Block, func(s *vliw.Syllable) {
			out = binary.AppendVarint(out, int64(s.GuestPC-prev))
			prev = s.GuestPC
		})
	}
	return out, nil
}

// decodeDocument parses a document and verifies it was written for key.
// It returns errForeign for a readable document of another schema or
// key, and a descriptive error for anything malformed.
func decodeDocument(data []byte, key string) ([]*Region, error) {
	d := decoder{buf: data}
	if schema := d.bytes(); d.err == nil && string(schema) != Schema {
		return nil, errForeign
	}
	if k := d.bytes(); d.err == nil && string(k) != key {
		return nil, errForeign
	}
	count := d.count()
	if d.err != nil {
		return nil, d.err
	}
	// A region takes at least minRegionBytes, which bounds the
	// allocation below by the document's size.
	if count > len(d.buf)/minRegionBytes {
		return nil, fmt.Errorf("%d regions in %d bytes", count, len(d.buf))
	}
	regions := make([]*Region, count)
	all := make([]Region, count)
	for i := range regions {
		rg := &all[i]
		rg.PC = d.uvarint()
		flags := d.uvarint()
		rg.Lo, rg.Hi = d.uvarint(), d.uvarint()
		rg.SpecLoads, rg.RiskyLoads, rg.GuardEdges = d.count(), d.count(), d.count()
		img := d.bytes()
		if d.err != nil {
			return nil, d.err
		}
		if flags&^flagMask != 0 || rg.Lo > rg.Hi {
			return nil, fmt.Errorf("malformed region %d", i)
		}
		rg.Trace = flags&flagTrace != 0
		rg.NoMemSpec = flags&flagNoMemSpec != 0
		rg.Pattern = flags&flagPattern != 0
		blk, err := vliw.DecodeBlock(img)
		if err != nil {
			return nil, fmt.Errorf("region %d: %w", i, err)
		}
		prev := rg.PC
		eachSyllable(blk, func(s *vliw.Syllable) {
			s.GuestPC = prev + uint64(d.varint())
			prev = s.GuestPC
		})
		if d.err != nil {
			return nil, d.err
		}
		rg.Block = blk
		regions[i] = rg
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(d.buf))
	}
	return regions, nil
}

// eachSyllable visits a block's syllables in side-table order.
func eachSyllable(b *vliw.Block, f func(*vliw.Syllable)) {
	for _, bun := range b.Bundles {
		for i := range bun {
			f(&bun[i])
		}
	}
	for _, rec := range b.Recoveries {
		for i := range rec {
			f(&rec[i])
		}
	}
}

func appendString(out []byte, s string) []byte {
	out = binary.AppendUvarint(out, uint64(len(s)))
	return append(out, s...)
}

// errTruncated reports a document that ends mid-field (a torn write).
var errTruncated = errors.New("truncated document")

// decoder reads the document's varint fields. The first failure sticks
// and every later read returns zero, so callers check err once per
// group of fields.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if !d.advance(n) {
		return 0
	}
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if !d.advance(n) {
		return 0
	}
	return v
}

// advance consumes a varint of n bytes as reported by the binary
// package (0: buffer too short, <0: overflow), or records the failure.
func (d *decoder) advance(n int) bool {
	switch {
	case n == 0:
		d.err = errTruncated
		return false
	case n < 0:
		d.err = errors.New("varint overflows 64 bits")
		return false
	}
	d.buf = d.buf[n:]
	return true
}

// count reads a non-negative int field.
func (d *decoder) count() int {
	v := d.uvarint()
	if v > math.MaxInt32 && d.err == nil {
		d.err = fmt.Errorf("count %d out of range", v)
	}
	return int(v)
}

// bytes reads a length-prefixed blob; the result aliases the input.
func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.err = errTruncated
		return nil
	}
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}

package core

import (
	"encoding/binary"
	"strings"
	"testing"
)

// metaHead is the magic and format version every v2 meta opens with.
func metaHead() []byte {
	out := binary.LittleEndian.AppendUint32(nil, metaMagic)
	return binary.LittleEndian.AppendUint32(out, metaVersion)
}

// metaBytes builds the common header of a serialized v2 store meta up
// through the codec name, so each case below only appends the section
// it wants to corrupt.
func metaBytes() []byte {
	out := appendUvarint(metaHead(), 1) // dims
	out = appendUvarint(out, 4)         // shape[0]
	out = appendUvarint(out, 2)         // chunkSize[0]
	out = appendString(out, "V-M-S")
	out = appendString(out, "hilbert")
	out = appendString(out, string(ModePlanes))
	out = appendString(out, "zlib")
	return out
}

// TestMetaRejectsOversizedDeclarations feeds the meta decoder streams
// whose declared counts vastly exceed what the remaining bytes could
// encode. Every count in the format sizes an allocation, and every
// length feeds binMeta.place's sums, so each must fail cleanly — with
// the error of the check that guards it — instead of allocating by the
// declared size or wrapping an int conversion negative.
func TestMetaRejectsOversizedDeclarations(t *testing.T) {
	huge := uint64(1) << 60
	// unitPrefix declares one bin with one unit and stops right before
	// the field each case wants to poison.
	unitPrefix := func() []byte {
		out := appendUvarint(metaBytes(), 0) // no bin bounds
		out = appendUvarint(out, 1)          // one bin
		out = appendUvarint(out, 1)          // one unit
		out = binary.AppendVarint(out, 0)    // chunk delta
		return out
	}
	cases := []struct {
		name     string
		data     []byte
		fragment string
	}{
		{"dims bomb", appendUvarint(metaHead(), huge), "implausible dims"},
		{"string length wrap", appendUvarint(appendUvarint(appendUvarint(appendUvarint(metaHead(), 1), 4), 2), 1<<63), "meta order"},
		{"bin bounds bomb", appendUvarint(metaBytes(), huge), "bin bounds with"},
		{"bin count bomb", appendUvarint(appendUvarint(metaBytes(), 0), huge), "bins with"},
		{"unit count bomb", appendUvarint(appendUvarint(appendUvarint(metaBytes(), 0), 1), huge), "units with"},
		{"point count wrap", appendUvarint(unitPrefix(), 1<<40), "varint 1099511627776 exceeds limit"},
		{"index length wrap",
			appendUvarint(appendUvarint(unitPrefix(),
				1), // count
				1<<31), // indexLen
			"varint 2147483648 exceeds limit"},
		{"piece length wrap",
			appendUvarint(appendUvarint(appendUvarint(unitPrefix(),
				1), // count
				1), // indexLen
				1<<32), // piece-0 length
			"varint 4294967296 exceeds limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := unmarshalStoreMeta(tc.data)
			if err == nil {
				t.Fatalf("decoder accepted oversized declaration: %+v", m)
			}
			if !strings.Contains(err.Error(), tc.fragment) {
				t.Fatalf("error %q does not mention %q", err, tc.fragment)
			}
		})
	}
}

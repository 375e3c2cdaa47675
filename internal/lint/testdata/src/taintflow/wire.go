package taintflow

import "encoding/binary"

// Lengths decoded from wire bytes reaching an allocation or a slice
// bound in the same function, with and without a bounds check.

func unbounded(data []byte) []uint64 {
	count, n := binary.Uvarint(data)
	data = data[n:]              // the bytes-consumed result is bounded by construction
	out := make([]uint64, count) // want `untrusted value count reaches make size without a bounds check`
	for i := range out {
		out[i], n = binary.Uvarint(data)
		data = data[n:]
	}
	return out
}

func converted(data []byte) []byte {
	size, _ := binary.Uvarint(data)
	c := int(size)
	return make([]byte, c) // want `untrusted value c reaches make size without a bounds check`
}

func sliced(data []byte) []byte {
	plen, n := binary.Uvarint(data)
	data = data[n:]
	return data[:plen] // want `untrusted value plen reaches slice bound without a bounds check`
}

func bounded(data []byte) ([]byte, bool) {
	plen, n := binary.Uvarint(data)
	data = data[n:]
	if plen > uint64(len(data)) {
		return nil, false
	}
	return data[:plen], true // sanitized by the comparison above
}

func boundedMake(data []byte) []float64 {
	count, _ := binary.Uvarint(data)
	if count > 1<<20 {
		return nil
	}
	return make([]float64, count) // sanitized by the cap above
}

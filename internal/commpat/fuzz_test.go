package commpat

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzBuilderMatchesMatrix feeds one arbitrary Add/AddSym sequence —
// any indices, any float64 including NaN, ±Inf and negatives — to a
// Matrix and a Builder. Sparse() and Build() must agree entry for entry
// and store only positive, finite volumes.
//
// Each op is 11 bytes: a kind byte (odd = AddSym), two signed index
// bytes, and the volume's IEEE-754 bits.
func FuzzBuilderMatchesMatrix(f *testing.F) {
	op := func(kind byte, i, j int8, v float64) []byte {
		b := []byte{kind, byte(i), byte(j), 0, 0, 0, 0, 0, 0, 0, 0}
		binary.LittleEndian.PutUint64(b[3:], math.Float64bits(v))
		return b
	}
	var seed []byte
	for _, v := range []float64{1, math.NaN(), math.Inf(1), math.Inf(-1), -1, 0,
		math.MaxFloat64, math.MaxFloat64, 1e-310, 0.1, 0.2, 0.3} {
		seed = append(seed, op(0, 0, 1, v)...)
	}
	seed = append(seed, op(1, 2, 5, 3)...)
	seed = append(seed, op(0, -1, 2, 3)...)
	seed = append(seed, op(0, 4, 4, 3)...)
	f.Add(uint8(6), seed)
	f.Add(uint8(1), op(1, 0, 0, 1))
	f.Fuzz(func(t *testing.T, n uint8, ops []byte) {
		ranks := int(n%32) + 1
		m := NewMatrix(ranks)
		b := NewBuilder(ranks)
		for len(ops) >= 11 {
			i, j := int(int8(ops[1])), int(int8(ops[2]))
			v := math.Float64frombits(binary.LittleEndian.Uint64(ops[3:11]))
			for _, a := range []adder{m, b} {
				if ops[0]&1 == 1 {
					a.AddSym(i, j, v)
				} else {
					a.Add(i, j, v)
				}
			}
			ops = ops[11:]
		}
		s := b.Build()
		sameTraffic(t, "fuzz", m, s)
		s.Each(func(i, j int, v float64) {
			if !(v > 0 && v <= math.MaxFloat64) {
				t.Fatalf("stored volume (%d,%d) = %g is not positive and finite", i, j, v)
			}
		})
	})
}

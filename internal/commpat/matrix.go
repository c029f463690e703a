// Package commpat generates synthetic rank-to-rank communication traffic
// matrices for the application classes the paper's motivation cites (§I,
// §II): nearest-neighbor stencils, the GTC gyrokinetic code's toroidal
// exchange, and NAS parallel benchmark proxies. These matrices drive the
// netsim cost model so that mapping experiments can measure how placement
// changes communication cost without real applications.
package commpat

import (
	"fmt"
	"math"
)

// Matrix is a dense rank-to-rank traffic matrix: Bytes(i,j) is the number
// of bytes rank i sends to rank j over one iteration of the application.
type Matrix struct {
	n     int
	bytes []float64
}

// NewMatrix creates an n-rank zero matrix.
func NewMatrix(n int) *Matrix {
	if n <= 0 {
		panic(fmt.Sprintf("commpat: non-positive rank count %d", n))
	}
	return &Matrix{n: n, bytes: make([]float64, n*n)}
}

// Ranks returns the number of ranks.
func (m *Matrix) Ranks() int { return m.n }

// Bytes returns the traffic from rank i to rank j (0 for out-of-range or
// self).
func (m *Matrix) Bytes(i, j int) float64 {
	if i < 0 || j < 0 || i >= m.n || j >= m.n || i == j {
		return 0
	}
	return m.bytes[i*m.n+j]
}

// Add accumulates traffic from i to j. Self pairs, out-of-range
// indices, and volumes that are not positive and finite (NaN, ±Inf,
// zero, negative) are ignored. An accumulated entry saturates at
// math.MaxFloat64 instead of overflowing, so every stored volume stays
// positive and finite.
func (m *Matrix) Add(i, j int, b float64) {
	if i < 0 || j < 0 || i >= m.n || j >= m.n || i == j || !ValidVolume(b) {
		return
	}
	m.bytes[i*m.n+j] = accumulate(m.bytes[i*m.n+j], b)
}

// ValidVolume reports whether b is a volume traffic may carry: positive
// and finite (NaN fails the first comparison). Add drops every other
// volume; CLIs use it to reject a -bytes flag up front.
func ValidVolume(b float64) bool {
	return b > 0 && b <= math.MaxFloat64
}

// accumulate adds volume b to sum, saturating at math.MaxFloat64.
func accumulate(sum, b float64) float64 {
	if sum += b; sum > math.MaxFloat64 {
		return math.MaxFloat64
	}
	return sum
}

// AddSym accumulates traffic in both directions.
func (m *Matrix) AddSym(i, j int, b float64) {
	m.Add(i, j, b)
	m.Add(j, i, b)
}

// Total returns the total bytes in the matrix.
func (m *Matrix) Total() float64 {
	t := 0.0
	for _, b := range m.bytes {
		t += b
	}
	return t
}

// Pairs returns the number of communicating (ordered) rank pairs.
func (m *Matrix) Pairs() int {
	n := 0
	for _, b := range m.bytes {
		if b > 0 {
			n++
		}
	}
	return n
}

// Each calls f for every communicating ordered pair.
func (m *Matrix) Each(f func(i, j int, bytes float64)) {
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if b := m.bytes[i*m.n+j]; b > 0 {
				f(i, j, b)
			}
		}
	}
}

// Scale multiplies all traffic by the factor.
func (m *Matrix) Scale(f float64) {
	for i := range m.bytes {
		m.bytes[i] *= f
	}
}

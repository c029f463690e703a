package commpat

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Traffic is the form traffic takes on a placement request: a rank count
// and a CSR view. *CSR is its own view; a dense *Matrix converts on each
// Sparse call, so callers that consult the view more than once should
// hand the request a CSR.
type Traffic interface {
	Ranks() int
	Sparse() *CSR
}

// SparseOf returns t's CSR view, or nil when t carries no traffic: a nil
// interface, or a typed-nil *Matrix or *CSR inside one.
func SparseOf(t Traffic) *CSR {
	if t == nil {
		return nil
	}
	return t.Sparse()
}

// CSR is a compressed-sparse-row view of a traffic matrix: the nonzero
// directed entries of every row stored contiguously, rows ascending,
// columns ascending within each row. It is the form the J(C,D,Π)
// evaluation wants — iterating communicating pairs only — and the only
// form that exists at 100k+ ranks, where a dense n×n float64 matrix
// would need tens of gigabytes (Schulz & Träff's sparse-QAP observation,
// PAPERS.md).
type CSR struct {
	n      int
	rowOff []int32 // len n+1; row i occupies col/val[rowOff[i]:rowOff[i+1]]
	col    []int32
	val    []float64
}

// Ranks returns the number of ranks.
func (s *CSR) Ranks() int { return s.n }

// Sparse returns s itself, making *CSR a Traffic.
func (s *CSR) Sparse() *CSR { return s }

// NNZ returns the number of stored communicating ordered pairs.
func (s *CSR) NNZ() int { return len(s.col) }

// Row returns rank i's outgoing entries as parallel column/value slices,
// columns ascending. Callers must not modify them.
func (s *CSR) Row(i int) (cols []int32, vals []float64) {
	lo, hi := s.rowOff[i], s.rowOff[i+1]
	return s.col[lo:hi], s.val[lo:hi]
}

// Bytes returns the traffic from rank i to rank j (0 when absent or out
// of range), by binary search within row i.
func (s *CSR) Bytes(i, j int) float64 {
	if i < 0 || j < 0 || i >= s.n || j >= s.n {
		return 0
	}
	cols, vals := s.Row(i)
	k := sort.Search(len(cols), func(x int) bool { return cols[x] >= int32(j) })
	if k < len(cols) && cols[k] == int32(j) {
		return vals[k]
	}
	return 0
}

// Total returns the total bytes stored.
func (s *CSR) Total() float64 {
	t := 0.0
	for _, v := range s.val {
		t += v
	}
	return t
}

// Each calls f for every communicating ordered pair in exactly the order
// Matrix.Each uses: rows ascending, columns ascending within a row.
func (s *CSR) Each(f func(i, j int, bytes float64)) {
	for i := 0; i < s.n; i++ {
		for k := s.rowOff[i]; k < s.rowOff[i+1]; k++ {
			f(i, int(s.col[k]), s.val[k])
		}
	}
}

// Dense materializes the CSR as a dense Matrix (for small differential
// tests; do not call at scale).
func (s *CSR) Dense() *Matrix {
	m := NewMatrix(s.n)
	s.Each(func(i, j int, bytes float64) { m.Add(i, j, bytes) })
	return m
}

// Undirected returns the pair-volume view of s: entry (i,j) holds
// Bytes(i,j)+Bytes(j,i), computed as that one addition, so the result is
// symmetric and equals the dense expression m.Bytes(i,j)+m.Bytes(j,i)
// bit for bit (a sum past math.MaxFloat64 saturates, like Add).
func (s *CSR) Undirected() *CSR {
	t := s.transpose()
	u := &CSR{
		n:      s.n,
		rowOff: make([]int32, s.n+1),
		col:    make([]int32, 0, 2*len(s.col)),
		val:    make([]float64, 0, 2*len(s.col)),
	}
	for i := 0; i < s.n; i++ {
		oc, ov := s.Row(i)
		ic, iv := t.Row(i)
		x, y := 0, 0
		for x < len(oc) || y < len(ic) {
			switch {
			case y == len(ic) || (x < len(oc) && oc[x] < ic[y]):
				u.col, u.val = append(u.col, oc[x]), append(u.val, ov[x])
				x++
			case x == len(oc) || ic[y] < oc[x]:
				u.col, u.val = append(u.col, ic[y]), append(u.val, iv[y])
				y++
			default:
				u.col, u.val = append(u.col, oc[x]), append(u.val, accumulate(ov[x], iv[y]))
				x++
				y++
			}
		}
		u.rowOff[i+1] = int32(len(u.col))
	}
	return u
}

// transpose returns the CSR of the reversed traffic: row j of the result
// lists every i that sends to j, i ascending.
func (s *CSR) transpose() *CSR {
	t := &CSR{
		n:      s.n,
		rowOff: make([]int32, s.n+1),
		col:    make([]int32, len(s.col)),
		val:    make([]float64, len(s.val)),
	}
	for _, j := range s.col {
		t.rowOff[j+1]++
	}
	for j := 0; j < s.n; j++ {
		t.rowOff[j+1] += t.rowOff[j]
	}
	next := append([]int32(nil), t.rowOff[:s.n]...)
	for i := 0; i < s.n; i++ {
		for k := s.rowOff[i]; k < s.rowOff[i+1]; k++ {
			j := s.col[k]
			t.col[next[j]], t.val[next[j]] = int32(i), s.val[k]
			next[j]++
		}
	}
	return t
}

// Sparse converts the dense matrix to its CSR view. The entry order is
// exactly Matrix.Each's, so evaluation through either view visits the
// same pairs in the same sequence. A nil matrix has no view (nil), so a
// typed-nil *Matrix on a request reads as missing traffic.
func (m *Matrix) Sparse() *CSR {
	if m == nil {
		return nil
	}
	nnz := m.Pairs()
	s := &CSR{
		n:      m.n,
		rowOff: make([]int32, m.n+1),
		col:    make([]int32, 0, nnz),
		val:    make([]float64, 0, nnz),
	}
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if b := m.bytes[i*m.n+j]; b > 0 {
				s.col = append(s.col, int32(j))
				s.val = append(s.val, b)
			}
		}
		s.rowOff[i+1] = int32(len(s.col))
	}
	return s
}

// Builder accumulates traffic entries directly in sparse form, for
// patterns whose nonzero count is far below n² — at 100k ranks it is the
// only way to construct traffic at all. Add/AddSym share Matrix.Add's
// exact drop semantics, so a Builder and a Matrix fed the same calls
// describe the same traffic.
type Builder struct {
	n   int
	ent []csrEntry
}

type csrEntry struct {
	row, col int32
	val      float64
}

// NewBuilder creates a builder for an n-rank job.
func NewBuilder(n int) *Builder {
	if n <= 0 {
		panic(fmt.Sprintf("commpat: non-positive rank count %d", n))
	}
	return &Builder{n: n}
}

// Ranks returns the number of ranks.
func (b *Builder) Ranks() int { return b.n }

// Add accumulates traffic from i to j. Self pairs, out-of-range indices,
// and volumes that are not positive and finite are ignored, matching
// Matrix.Add.
func (b *Builder) Add(i, j int, bytes float64) {
	if i < 0 || j < 0 || i >= b.n || j >= b.n || i == j || !ValidVolume(bytes) {
		return
	}
	b.ent = append(b.ent, csrEntry{int32(i), int32(j), bytes})
}

// AddSym accumulates traffic in both directions.
func (b *Builder) AddSym(i, j int, bytes float64) {
	b.Add(i, j, bytes)
	b.Add(j, i, bytes)
}

// Build sorts the accumulated entries row-major and merges duplicate
// pairs by summing them in Add order, exactly as Matrix.Add accumulates,
// and returns the CSR. The builder is reusable: further Adds followed by
// another Build see all entries.
func (b *Builder) Build() *CSR {
	// Bucket entries by row with a counting sort, which keeps Add order
	// within a row; the stable per-row column sort keeps it within a pair.
	off := make([]int32, b.n+1)
	for _, e := range b.ent {
		off[e.row+1]++
	}
	for i := 0; i < b.n; i++ {
		off[i+1] += off[i]
	}
	byRow := make([]csrEntry, len(b.ent))
	next := append([]int32(nil), off[:b.n]...)
	for _, e := range b.ent {
		byRow[next[e.row]] = e
		next[e.row]++
	}
	s := &CSR{
		n:      b.n,
		rowOff: make([]int32, b.n+1),
		col:    make([]int32, 0, len(byRow)),
		val:    make([]float64, 0, len(byRow)),
	}
	for i := 0; i < b.n; i++ {
		row := byRow[off[i]:off[i+1]]
		slices.SortStableFunc(row, func(x, y csrEntry) int { return cmp.Compare(x.col, y.col) })
		for k, e := range row {
			if k > 0 && e.col == row[k-1].col {
				s.val[len(s.val)-1] = accumulate(s.val[len(s.val)-1], e.val)
				continue
			}
			s.col = append(s.col, e.col)
			s.val = append(s.val, e.val)
		}
		s.rowOff[i+1] = int32(len(s.col))
	}
	return s
}

package commpat

import (
	"math"
	"runtime"
	"testing"
)

// sameTraffic asserts the CSR and Matrix describe identical traffic and
// visit pairs in the same order.
func sameTraffic(t *testing.T, name string, m *Matrix, s *CSR) {
	t.Helper()
	if m.Ranks() != s.Ranks() {
		t.Fatalf("%s: ranks %d vs %d", name, m.Ranks(), s.Ranks())
	}
	if m.Pairs() != s.NNZ() {
		t.Fatalf("%s: pairs %d vs nnz %d", name, m.Pairs(), s.NNZ())
	}
	type ent struct {
		i, j int
		b    float64
	}
	var dense, sparse []ent
	m.Each(func(i, j int, b float64) { dense = append(dense, ent{i, j, b}) })
	s.Each(func(i, j int, b float64) { sparse = append(sparse, ent{i, j, b}) })
	if len(dense) != len(sparse) {
		t.Fatalf("%s: %d dense entries vs %d sparse", name, len(dense), len(sparse))
	}
	for k := range dense {
		if dense[k] != sparse[k] {
			t.Fatalf("%s: entry %d: dense %+v, sparse %+v", name, k, dense[k], sparse[k])
		}
	}
}

func TestSparseMatchesMatrix(t *testing.T) {
	for _, p := range Patterns() {
		for _, n := range []int{1, 2, 7, 16, 36} {
			m := p.Gen(n, 1000)
			sameTraffic(t, p.Name, m, m.Sparse())
		}
	}
}

func TestSparseAccessors(t *testing.T) {
	m := Ring(8, 100)
	s := m.Sparse()
	if s.Total() != m.Total() {
		t.Fatalf("total %g vs %g", s.Total(), m.Total())
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if s.Bytes(i, j) != m.Bytes(i, j) {
				t.Fatalf("bytes(%d,%d): %g vs %g", i, j, s.Bytes(i, j), m.Bytes(i, j))
			}
		}
	}
	if s.Bytes(-1, 0) != 0 || s.Bytes(0, 99) != 0 {
		t.Fatal("out-of-range bytes should be 0")
	}
	cols, vals := s.Row(0)
	if len(cols) != 2 || len(vals) != 2 {
		t.Fatalf("row 0 has %d entries, want 2", len(cols))
	}
	sameTraffic(t, "dense-roundtrip", s.Dense(), s)
}

// TestBuilderMatchesMatrix feeds identical Add/AddSym sequences to a
// Matrix and a Builder and requires identical traffic, including the
// drop semantics (self pairs, out-of-range, non-positive volumes) and
// duplicate merging.
func TestBuilderMatchesMatrix(t *testing.T) {
	n := 10
	m := NewMatrix(n)
	b := NewBuilder(n)
	feed := func(a adder) {
		a.Add(0, 1, 5)
		a.Add(0, 1, 7)    // duplicate: merges
		a.Add(1, 0, 2)    // reverse direction is distinct
		a.Add(3, 3, 9)    // self: dropped
		a.Add(-1, 2, 4)   // out of range: dropped
		a.Add(2, n, 4)    // out of range: dropped
		a.Add(4, 5, 0)    // non-positive: dropped
		a.Add(4, 5, -3)   // non-positive: dropped
		a.AddSym(8, 9, 6) // both directions
		a.Add(9, 2, 1)    // out-of-order row: Build must sort
		// 1e16+1 rounds back to 1e16, so duplicates must merge in Add
		// order, also in a row long enough for an unstable sort to
		// reorder equal columns.
		for k := 0; k < 30*n; k++ {
			a.Add(5, (k*7)%n, 1)
			if k == 15*n {
				a.Add(5, 6, 1e16)
			}
		}
	}
	feed(m)
	feed(b)
	sameTraffic(t, "builder", m, b.Build())
}

func TestBuilderReusable(t *testing.T) {
	b := NewBuilder(4)
	b.Add(0, 1, 1)
	s1 := b.Build()
	b.Add(1, 2, 1)
	s2 := b.Build()
	if s1.NNZ() != 1 || s2.NNZ() != 2 {
		t.Fatalf("nnz %d then %d, want 1 then 2", s1.NNZ(), s2.NNZ())
	}
}

func TestNewBuilderPanicsOnBadRanks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewBuilder(0)
}

// TestSparsePatternsMatchDense pins the satellite guarantee: the
// direct-CSR generators produce entry-for-entry what the dense
// generators produce.
func TestSparsePatternsMatchDense(t *testing.T) {
	for _, sp := range SparsePatterns() {
		gen, ok := ByName(sp.Name)
		if !ok {
			t.Fatalf("sparse pattern %q has no dense twin", sp.Name)
		}
		for _, n := range []int{2, 5, 16, 27, 64} {
			sameTraffic(t, sp.Name, gen(n, 777), sp.Gen(n, 777))
		}
	}
	if _, ok := SparseByName("ring"); !ok {
		t.Fatal("SparseByName(ring)")
	}
	for _, name := range []string{"alltoall", "nas-ft"} {
		if _, ok := SparseByName(name); ok {
			t.Fatalf("%s is dense-only (O(n²) nonzeros)", name)
		}
	}
	for _, p := range Patterns() {
		_, sparse := SparseByName(p.Name)
		if dense := p.Name == "alltoall" || p.Name == "nas-ft"; sparse == dense {
			t.Errorf("%s: has direct sparse generator = %v", p.Name, sparse)
		}
	}
}

// TestGenerateMatchesDense: Generate is ByName(p)(n, b).Sparse() entry
// for entry for every pattern, sparse generator or not.
func TestGenerateMatchesDense(t *testing.T) {
	for _, p := range Patterns() {
		for _, n := range []int{1, 7, 64} {
			s, err := Generate(p.Name, n, 4096)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			sameTraffic(t, p.Name, p.Gen(n, 4096), s)
		}
	}
	if _, err := Generate("nope", 4, 1); err == nil {
		t.Fatal("unknown pattern accepted")
	}
	if _, err := Generate("ring", 0, 1); err == nil {
		t.Fatal("zero ranks accepted")
	}
}

// TestGenerateStaysSparse pins that a pattern with a direct generator
// never materializes the dense n×n matrix (128 MiB at 4096 ranks).
func TestGenerateStaysSparse(t *testing.T) {
	const n = 4096
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Generate("stencil3d", n, 1<<20); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
		t.Fatalf("Generate(stencil3d, %d) allocated %d bytes, want < 8 MiB", n, got)
	}
}

func TestUndirected(t *testing.T) {
	for _, p := range Patterns() {
		m := p.Gen(27, 0.1)
		m.Add(3, 5, 1e300)
		u := m.Sparse().Undirected()
		for i := 0; i < 27; i++ {
			for j := 0; j < 27; j++ {
				if got, want := u.Bytes(i, j), m.Bytes(i, j)+m.Bytes(j, i); got != want {
					t.Fatalf("%s (%d,%d): %g, want %g", p.Name, i, j, got, want)
				}
			}
			cols, _ := u.Row(i)
			for k := 1; k < len(cols); k++ {
				if cols[k-1] >= cols[k] {
					t.Fatalf("%s row %d: columns not ascending: %v", p.Name, i, cols)
				}
			}
		}
	}
	m := NewMatrix(2)
	m.AddSym(0, 1, math.MaxFloat64)
	if got := m.Sparse().Undirected().Bytes(0, 1); got != math.MaxFloat64 {
		t.Fatalf("undirected sum %g, want saturation at MaxFloat64", got)
	}
}

// TestNonFiniteVolumesDropped: NaN and ±Inf never enter traffic, and
// accumulation saturates instead of overflowing to +Inf.
func TestNonFiniteVolumesDropped(t *testing.T) {
	m := NewMatrix(3)
	b := NewBuilder(3)
	for _, a := range []adder{m, b} {
		a.Add(0, 1, math.NaN())
		a.Add(0, 1, math.Inf(1))
		a.Add(0, 1, math.Inf(-1))
		a.Add(1, 2, math.MaxFloat64)
		a.Add(1, 2, math.MaxFloat64)
	}
	s := b.Build()
	sameTraffic(t, "non-finite", m, s)
	if m.Bytes(0, 1) != 0 || s.NNZ() != 1 || s.Bytes(1, 2) != math.MaxFloat64 {
		t.Fatalf("got %v nnz=%d (1,2)=%g", m.Bytes(0, 1), s.NNZ(), s.Bytes(1, 2))
	}
	for _, text := range []string{"ranks 2\n0 1 NaN\n", "ranks 2\n0 1 +Inf\n"} {
		if _, err := ParseMatrix(text); err == nil {
			t.Errorf("ParseMatrix(%q) accepted a non-finite volume", text)
		}
	}
}

// TestSparseOfNil: a nil interface and typed-nil *Matrix / *CSR all read
// as missing traffic.
func TestSparseOfNil(t *testing.T) {
	var m *Matrix
	var s *CSR
	for _, tr := range []Traffic{nil, m, s} {
		if SparseOf(tr) != nil {
			t.Fatalf("SparseOf(%#v) != nil", tr)
		}
	}
	r := Ring(4, 1).Sparse()
	if SparseOf(r) != r {
		t.Fatal("SparseOf(*CSR) must return its receiver")
	}
}

// BenchmarkGenerate is the traffic layer of a 4096-rank plan: the
// direct sparse generators, with no dense matrix behind them.
func BenchmarkGenerate(b *testing.B) {
	for _, pattern := range []string{"stencil3d", "gtc"} {
		b.Run(pattern, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Generate(pattern, 4096, 1<<20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

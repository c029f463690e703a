package reorder

import (
	"context"
	"testing"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/netsim"
	"lama/internal/place"
)

func setup(t *testing.T, layout string, nodes, np int) (*cluster.Cluster, *core.Map, *netsim.Model) {
	t.Helper()
	sp, _ := hw.Preset("fig2")
	c := cluster.Homogeneous(nodes, sp)
	mapper, err := core.NewMapper(c, core.MustParseLayout(layout), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapper.Map(np)
	if err != nil {
		t.Fatal(err)
	}
	return c, m, netsim.NewModel(netsim.NewFlat())
}

func TestReorderImprovesScatteredRing(t *testing.T) {
	// A cyclic mapping of a ring is pessimal: every neighbor pair crosses
	// nodes. Reordering (without touching processors) must reunite them.
	c, m, mo := setup(t, "ncsbh", 2, 24)
	tm := commpat.Ring(24, 1<<20)
	res, err := Optimize(c, m, mo, tm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.After >= res.Before {
		t.Fatalf("no improvement: %v -> %v", res.Before, res.After)
	}
	if res.Swaps == 0 {
		t.Fatal("no swaps recorded")
	}
	// The reordered map must still be a valid plan on the same slots.
	if err := res.Map.Validate(c); err != nil {
		t.Fatal(err)
	}
	// Same multiset of (node, PU) slots.
	type key struct{ node, pu int }
	before, after := map[key]int{}, map[key]int{}
	for i := range m.Placements {
		before[key{m.Placements[i].Node, m.Placements[i].PU()}]++
		after[key{res.Map.Placements[i].Node, res.Map.Placements[i].PU()}]++
	}
	for k, n := range before {
		if after[k] != n {
			t.Fatalf("slot multiset changed at %v", k)
		}
	}
	// Verify the claimed cost against an independent evaluation.
	rep, err := mo.Evaluate(c, res.Map, tm)
	if err != nil {
		t.Fatal(err)
	}
	if diff := rep.TotalTime - res.After; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("claimed %v, evaluated %v", res.After, rep.TotalTime)
	}
}

func TestReorderLeavesGoodMappingAlone(t *testing.T) {
	// A packed ring is already near-optimal; reordering must not hurt.
	c, m, mo := setup(t, "csbnh", 2, 24)
	tm := commpat.Ring(24, 1<<20)
	res, err := Optimize(c, m, mo, tm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.After > res.Before {
		t.Fatalf("reorder made it worse: %v -> %v", res.Before, res.After)
	}
}

func TestReorderPermIsPermutation(t *testing.T) {
	c, m, mo := setup(t, "ncsbh", 2, 12)
	tm := commpat.RandomPairs(12, 30, 1000, 3)
	res, err := Optimize(c, m, mo, tm, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, 12)
	for _, p := range res.Perm {
		if p < 0 || p >= 12 || seen[p] {
			t.Fatalf("not a permutation: %v", res.Perm)
		}
		seen[p] = true
	}
}

func TestReorderErrors(t *testing.T) {
	c, m, mo := setup(t, "csbnh", 1, 4)
	if _, err := Optimize(c, &core.Map{}, mo, commpat.Ring(4, 1), 0); err == nil {
		t.Fatal("empty map")
	}
	if _, err := Optimize(c, m, mo, commpat.Ring(5, 1), 0); err == nil {
		t.Fatal("size mismatch")
	}
}

// TestPassTraffic: the stage lowers CSR traffic to the same result the
// dense matrix gives, and a missing traffic (nil, or a typed nil inside
// the interface) is an error, not a nil dereference.
func TestPassTraffic(t *testing.T) {
	c, m, _ := setup(t, "ncsbh", 2, 24)
	dense := commpat.Ring(24, 1<<20)
	var results []*Result
	p := &Pass{OnResult: func(r *Result) { results = append(results, r) }}
	for _, tm := range []commpat.Traffic{dense, dense.Sparse()} {
		if _, err := p.Apply(context.Background(), &place.Request{Cluster: c, NP: 24, Traffic: tm}, m); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := results[0], results[1]; a.After != b.After || a.Swaps != b.Swaps {
		t.Fatalf("dense %+v vs CSR %+v", a, b)
	}
	var nilMatrix *commpat.Matrix
	var nilCSR *commpat.CSR
	for _, tm := range []commpat.Traffic{nil, nilMatrix, nilCSR} {
		if _, err := p.Apply(context.Background(), &place.Request{Cluster: c, NP: 24, Traffic: tm}, m); err == nil {
			t.Fatalf("missing traffic %#v accepted", tm)
		}
	}
}

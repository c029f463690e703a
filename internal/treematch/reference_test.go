package treematch

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/place"
)

// denseMap is the dense-matrix TreeMatch body Map replaced, kept as the
// reference Map must reproduce placement for placement: every weight is
// an O(n) scan of the matrix and every affinity a rescan of the group.
func denseMap(c *cluster.Cluster, tm *commpat.Matrix, np int) (*core.Map, error) {
	if tm.Ranks() != np {
		return nil, fmt.Errorf("traffic has %d ranks, want %d", tm.Ranks(), np)
	}
	all := make([]int, np)
	for i := range all {
		all[i] = i
	}
	var bins []bin
	for i, node := range c.Nodes {
		if capacity := len(node.Topo.Root.UsablePUs()); capacity > 0 {
			bins = append(bins, bin{idx: i, capacity: capacity})
		}
	}
	placements := make([]core.Placement, np)
	for bi, ranks := range densePartition(tm, all, bins) {
		nodeIdx := bins[bi].idx
		node := c.Node(nodeIdx)
		denseAssignSubtree(tm, node.Topo.Root, ranks, func(rank int, pu *hw.Object) {
			placements[rank] = core.Placement{
				Rank: rank, Node: nodeIdx, NodeName: node.Name,
				Coords: core.NodeCoords(nodeIdx), Leaf: pu, PUs: []int{pu.OS},
			}
		})
	}
	return &core.Map{Sweeps: 1, Placements: placements}, nil
}

func denseAssignSubtree(tm *commpat.Matrix, obj *hw.Object, ranks []int, emit func(rank int, pu *hw.Object)) {
	if len(ranks) == 0 {
		return
	}
	if obj.Level == hw.LevelPU {
		emit(ranks[0], obj)
		return
	}
	var kids []*hw.Object
	for _, ch := range obj.Children {
		if ch.Available && len(ch.UsablePUs()) > 0 {
			kids = append(kids, ch)
		}
	}
	if len(kids) == 1 {
		denseAssignSubtree(tm, kids[0], ranks, emit)
		return
	}
	bins := make([]bin, len(kids))
	for i, ch := range kids {
		bins[i] = bin{idx: i, capacity: len(ch.UsablePUs())}
	}
	for bi, group := range densePartition(tm, ranks, bins) {
		denseAssignSubtree(tm, kids[bi], group, emit)
	}
}

func densePartition(tm *commpat.Matrix, ranks []int, bins []bin) [][]int {
	groups := make([][]int, len(bins))
	unassigned := append([]int(nil), ranks...)
	sort.Ints(unassigned)
	shares := make([]int, len(bins))
	left := len(ranks)
	for i, b := range bins {
		take := b.capacity
		if take > left {
			take = left
		}
		shares[i] = take
		left -= take
	}
	for i := range bins {
		for len(groups[i]) < shares[i] {
			var at int
			if len(groups[i]) == 0 {
				at = denseHeaviestRank(tm, unassigned)
			} else {
				at = denseBestAffinity(tm, unassigned, groups[i])
			}
			groups[i] = append(groups[i], unassigned[at])
			unassigned = append(unassigned[:at], unassigned[at+1:]...)
		}
		sort.Ints(groups[i])
	}
	return groups
}

func denseHeaviestRank(tm *commpat.Matrix, unassigned []int) int {
	best, bestW := -1, -1.0
	for i, r := range unassigned {
		w := 0.0
		for o := 0; o < tm.Ranks(); o++ {
			w += tm.Bytes(r, o) + tm.Bytes(o, r)
		}
		if w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

func denseBestAffinity(tm *commpat.Matrix, unassigned []int, group []int) int {
	best, bestW := -1, -1.0
	for i, r := range unassigned {
		w := 0.0
		for _, g := range group {
			w += tm.Bytes(r, g) + tm.Bytes(g, r)
		}
		if w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

// shuffledCliques is E12's irregular pattern: all-to-all groups of g
// whose membership is a seeded shuffle of the rank space.
func shuffledCliques(n, g int, bytes float64, seed int64) *commpat.Matrix {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	state := uint64(seed)*2862933555777941757 + 3037000493
	for i := n - 1; i > 0; i-- {
		state = state*2862933555777941757 + 3037000493
		j := int(state % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	m := commpat.NewMatrix(n)
	for base := 0; base < n; base += g {
		for i := base; i < base+g && i < n; i++ {
			for j := base; j < base+g && j < n; j++ {
				m.Add(perm[i], perm[j], bytes)
			}
		}
	}
	return m
}

// referenceClusters returns the differential test's clusters, each with
// room for 512 ranks plus a spare node: four homogeneous presets and a
// heterogeneous mix with one socket off-line.
func referenceClusters(t testing.TB) map[string]*cluster.Cluster {
	t.Helper()
	spec := func(name string) hw.Spec {
		sp, ok := hw.Preset(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		return sp
	}
	out := map[string]*cluster.Cluster{}
	for _, name := range []string{"nehalem-ep", "magny-cours", "power7", "fig2"} {
		per := cluster.Homogeneous(1, spec(name)).TotalUsablePUs()
		out[name] = cluster.Homogeneous(512/per+2, spec(name))
	}
	var mix []hw.Spec
	for pus := 0; pus < 600; {
		for _, name := range []string{"nehalem-ep", "power7", "fig2", "magny-cours"} {
			mix = append(mix, spec(name))
			pus += cluster.Homogeneous(1, spec(name)).TotalUsablePUs()
		}
	}
	het := cluster.FromSpecs(mix...)
	het.Nodes[1].Topo.SetAvailable(hw.LevelSocket, 1, false)
	out["heterogeneous"] = het
	return out
}

// TestMapMatchesDenseReference diffs the CSR Map against the dense
// reference placement for placement on every pattern, random pairs and
// E12's shuffled cliques, across presets and a heterogeneous cluster.
func TestMapMatchesDenseReference(t *testing.T) {
	clusters := referenceClusters(t)
	for _, np := range []int{7, 64, 256, 512} {
		traffic := map[string]*commpat.Matrix{
			"random-pairs":     commpat.RandomPairs(np, 2*np, 1<<20, 12),
			"shuffled-cliques": shuffledCliques(np, 8, 1<<20, 13),
		}
		for _, p := range commpat.Patterns() {
			traffic[p.Name] = p.Gen(np, 1<<20)
		}
		for cname, c := range clusters {
			for tname, tm := range traffic {
				want, err := denseMap(c, tm, np)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Map(c, tm.Sparse(), np)
				if err != nil {
					t.Fatalf("%s/%s/np=%d: %v", cname, tname, np, err)
				}
				for r := range want.Placements {
					w, g := want.Placements[r], got.Placements[r]
					if w.Node != g.Node || w.Leaf != g.Leaf {
						t.Fatalf("%s/%s/np=%d: rank %d on node %d %s, reference node %d %s",
							cname, tname, np, r, g.Node, g.Leaf, w.Node, w.Leaf)
					}
				}
			}
		}
	}
}

// TestMapMissingTraffic: a typed-nil *Matrix or *CSR reports missing
// traffic rather than dereferencing nil, directly and via the policy.
func TestMapMissingTraffic(t *testing.T) {
	c := fig2Cluster(t, 1)
	var m *commpat.Matrix
	var s *commpat.CSR
	for _, tm := range []commpat.Traffic{nil, m, s} {
		if _, err := Map(c, tm, 4); err == nil {
			t.Fatalf("Map(%#v) accepted missing traffic", tm)
		}
		if _, err := (policy{}).Place(context.Background(), &place.Request{Cluster: c, NP: 4, Traffic: tm}); err == nil {
			t.Fatalf("policy accepted missing traffic %#v", tm)
		}
	}
}

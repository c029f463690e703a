// Package treematch implements a simplified traffic-aware hierarchical
// mapper in the spirit of TreeMatch (Jeannot & Mercier, "Near-Optimal
// Placement of MPI Processes on Hierarchical NUMA Architectures" — the
// paper's reference [3]). Where the LAMA applies a user-chosen regular
// pattern obliviously to the application, TreeMatch reads the
// application's communication matrix and recursively partitions the ranks
// down the hardware tree so that heavily-communicating ranks share the
// deepest possible subtree.
//
// It serves two roles here: (1) the related-work comparator for the
// extension experiment E12, quantifying what pattern-oblivious mapping
// leaves on the table for irregular applications, and (2) a demonstration
// that the hw/cluster substrate supports mappers beyond the LAMA.
package treematch

import (
	"fmt"
	"sort"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
)

// Map places np ranks onto the cluster guided by the traffic, greedily
// maximizing the traffic kept inside each topology subtree. It never
// oversubscribes; np must not exceed the cluster's usable PUs, and the
// traffic must cover exactly np ranks. It works on the CSR view, so its
// cost follows the communicating pairs, not np².
func Map(c *cluster.Cluster, traffic commpat.Traffic, np int) (*core.Map, error) {
	if np <= 0 {
		return nil, fmt.Errorf("treematch: non-positive process count %d", np)
	}
	tm := commpat.SparseOf(traffic)
	if tm == nil {
		return nil, fmt.Errorf("treematch: no traffic matrix")
	}
	if tm.Ranks() != np {
		return nil, fmt.Errorf("treematch: traffic has %d ranks, want %d", tm.Ranks(), np)
	}
	if cap := c.TotalUsablePUs(); np > cap {
		return nil, fmt.Errorf("treematch: %d ranks exceed %d usable PUs", np, cap)
	}

	all := make([]int, np)
	for i := range all {
		all[i] = i
	}

	// Top level: partition ranks across nodes.
	bins := make([]bin, 0, c.NumNodes())
	for i, node := range c.Nodes {
		capacity := node.Topo.NumUsablePUs()
		if capacity > 0 {
			bins = append(bins, bin{idx: i, capacity: capacity})
		}
	}
	p := newPartitioner(tm)
	groups := p.partition(all, bins)

	m := &core.Map{Sweeps: 1}
	placements := make([]core.Placement, np)
	for bi, ranks := range groups {
		nodeIdx := bins[bi].idx
		node := c.Node(nodeIdx)
		p.assignSubtree(node.Topo.Root, ranks, func(rank int, pu *hw.Object) {
			placements[rank] = core.Placement{
				Rank:     rank,
				Node:     nodeIdx,
				NodeName: node.Name,
				Coords:   core.NodeCoords(nodeIdx),
				Leaf:     pu,
				PUs:      []int{pu.OS},
			}
		})
	}
	m.Placements = placements
	return m, nil
}

// bin is one partition target with a PU capacity.
type bin struct {
	idx      int
	capacity int
}

// partitioner holds the traffic in the shape the greedy grouping reads
// it: pair weights w(r,o) = B(r,o)+B(o,r) as symmetric CSR rows, every
// rank's total weight, and the affinity gain of every rank to the group
// being grown.
type partitioner struct {
	adj *commpat.CSR
	// total[r] sums w(r,o) over o ascending; the pairs with w = 0 add
	// nothing and are skipped.
	total []float64
	// gain[r] sums w(r,g) over the current group's members in join
	// order. It is meaningful only for the ranks of the partition being
	// grown; partition resets it at each bin.
	gain []float64
}

func newPartitioner(tm *commpat.CSR) *partitioner {
	adj := tm.Undirected()
	p := &partitioner{
		adj:   adj,
		total: make([]float64, adj.Ranks()),
		gain:  make([]float64, adj.Ranks()),
	}
	for r := range p.total {
		_, vals := adj.Row(r)
		for _, w := range vals {
			p.total[r] += w
		}
	}
	return p
}

// assignSubtree recursively partitions ranks across obj's children by
// usable capacity, bottoming out by pairing ranks with PUs.
func (p *partitioner) assignSubtree(obj *hw.Object, ranks []int, emit func(rank int, pu *hw.Object)) {
	if len(ranks) == 0 {
		return
	}
	if obj.Level == hw.LevelPU {
		// Exactly one rank can land here (capacities guarantee it).
		emit(ranks[0], obj)
		return
	}
	// Transparent levels (single usable child) recurse directly.
	kids := make([]*hw.Object, 0, len(obj.Children))
	bins := make([]bin, 0, len(obj.Children))
	for _, ch := range obj.Children {
		if !ch.Available {
			continue
		}
		if n := ch.NumUsablePUs(); n > 0 {
			bins = append(bins, bin{idx: len(kids), capacity: n})
			kids = append(kids, ch)
		}
	}
	if len(kids) == 1 {
		p.assignSubtree(kids[0], ranks, emit)
		return
	}
	for bi, group := range p.partition(ranks, bins) {
		p.assignSubtree(kids[bi], group, emit)
	}
}

// partition splits ranks into per-bin groups, greedily: each bin is seeded
// with the unassigned rank having the largest total traffic, then grown by
// repeatedly adding the unassigned rank with the most traffic to the bin's
// current members, until the bin holds its share. Shares are computed
// proportionally to capacities so that small bins are not starved.
//
// A joining rank updates the gains of its O(degree) neighbours only; a
// rank it does not talk with gains w = 0, which adds nothing.
func (p *partitioner) partition(ranks []int, bins []bin) [][]int {
	groups := make([][]int, len(bins))
	// Unassigned ranks are kept as a sorted slice and always scanned in
	// ascending order, so ties break toward the lowest rank by construction
	// — determinism must never ride on map iteration order.
	unassigned := append([]int(nil), ranks...)
	sort.Ints(unassigned)

	// Shares: fill bins in order, each taking min(capacity, what's left).
	// (Traffic-aware seeding below decides *which* ranks, not how many.)
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
		if shares[i] == 0 {
			continue
		}
		for _, r := range unassigned {
			p.gain[r] = 0
		}
		groups[i] = make([]int, 0, shares[i])
		for len(groups[i]) < shares[i] {
			weight := p.gain
			if len(groups[i]) == 0 {
				weight = p.total
			}
			at := heaviest(weight, unassigned)
			r := unassigned[at]
			groups[i] = append(groups[i], r)
			unassigned = append(unassigned[:at], unassigned[at+1:]...)
			cols, vals := p.adj.Row(r)
			for k, o := range cols {
				p.gain[o] += vals[k]
			}
		}
		sort.Ints(groups[i])
	}
	return groups
}

// heaviest returns the index (into the sorted unassigned slice) of the
// rank with the largest weight; ties break toward the lowest rank because
// the slice is scanned in ascending order.
func heaviest(weight []float64, unassigned []int) int {
	best, bestW := -1, -1.0
	for i, r := range unassigned {
		if w := weight[r]; w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

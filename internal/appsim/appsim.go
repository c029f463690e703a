// Package appsim estimates the execution time of an iterative
// bulk-synchronous application under a given mapping: each iteration is a
// compute phase followed by a communication phase whose duration is the
// slowest of (a) the busiest rank's serialized message time and (b) the
// most congested network link (for link-modeling networks). This turns
// the static per-message costs of netsim into end-to-end iteration times
// and application-level speedups — the quantity the paper's motivating
// studies report.
package appsim

import (
	"fmt"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/netsim"
)

// Config describes the simulated application.
type Config struct {
	// ComputeUs is the per-iteration compute time of each rank, in µs.
	ComputeUs float64
	// Iterations is the number of BSP iterations to simulate.
	Iterations int
}

// Result is the simulated execution outcome.
type Result struct {
	// TotalUs is the end-to-end time of all iterations.
	TotalUs float64
	// IterUs is the time of one iteration (all iterations are identical).
	IterUs float64
	// CommUs is the communication-phase time of one iteration.
	CommUs float64
	// BoundBy names the dominant term: "compute", "rank-comm", or "link".
	BoundBy string
}

// Run simulates the application. The traffic gives per-iteration
// exchanged bytes between ranks.
func Run(c *cluster.Cluster, m *core.Map, model *netsim.Model,
	tm commpat.Traffic, cfg Config) (*Result, error) {
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("appsim: non-positive iteration count %d", cfg.Iterations)
	}
	if cfg.ComputeUs < 0 {
		return nil, fmt.Errorf("appsim: negative compute time")
	}
	if tm.Ranks() != m.NumRanks() {
		return nil, fmt.Errorf("appsim: traffic has %d ranks, map has %d", tm.Ranks(), m.NumRanks())
	}

	// Per-rank serialized communication time (sends plus receives).
	perRank := make([]float64, m.NumRanks())
	flows := map[[2]int]float64{}
	var firstErr error
	tm.Sparse().Each(func(i, j int, bytes float64) {
		cost, err := model.PairCost(c, m, i, j, bytes)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		perRank[i] += cost
		perRank[j] += cost
		ni, nj := m.Placements[i].Node, m.Placements[j].Node
		if ni != nj {
			flows[[2]int{ni, nj}] += bytes
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	rankComm := 0.0
	for _, t := range perRank {
		if t > rankComm {
			rankComm = t
		}
	}

	// Link congestion bound (torus networks model individual links).
	linkTime := 0.0
	if t3, ok := model.Net.(*netsim.Torus3D); ok {
		maxLoad, _ := t3.LinkLoads(flows)
		if t3.BW > 0 {
			linkTime = maxLoad / t3.BW
		}
	}

	comm := rankComm
	bound := "rank-comm"
	if linkTime > comm {
		comm = linkTime
		bound = "link"
	}
	if cfg.ComputeUs > comm {
		bound = "compute"
	}
	iter := cfg.ComputeUs + comm
	return &Result{
		TotalUs: iter * float64(cfg.Iterations),
		IterUs:  iter,
		CommUs:  comm,
		BoundBy: bound,
	}, nil
}

// Speedup returns how much faster b is than a (a.TotalUs / b.TotalUs).
func Speedup(a, b *Result) float64 {
	if b.TotalUs == 0 {
		return 0
	}
	return a.TotalUs / b.TotalUs
}

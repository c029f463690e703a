package reorder

import (
	"context"
	"fmt"

	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/netsim"
	"lama/internal/obs"
	"lama/internal/place"
)

// Pass adapts rank reordering to the pipeline's post-pass Stage interface:
// inserted between place and bind, it permutes the application ranks of an
// already-placed map (processors stay fixed) to lower communication cost
// under the request's traffic matrix.
type Pass struct {
	// Model is the communication-cost model; nil means a flat network.
	Model *netsim.Model
	// MaxSweeps bounds the greedy local search; 0 sweeps to convergence.
	MaxSweeps int
	// OnResult, when set, receives the optimization outcome (before/after
	// cost, swap count) for reporting.
	OnResult func(*Result)
}

// StageName returns the registered reorder span label, the pipeline span
// and event label.
func (p *Pass) StageName() string { return obs.SpanReorder }

// Apply runs the optimizer using the request's traffic. A request
// without any is an error: composing a reorder stage is an explicit ask
// for traffic-aware optimization. The optimizer reads a dense matrix, so
// CSR traffic is lowered to one here.
func (p *Pass) Apply(_ context.Context, req *place.Request, m *core.Map) (*core.Map, error) {
	tm, ok := req.Traffic.(*commpat.Matrix)
	if !ok {
		if s := commpat.SparseOf(req.Traffic); s != nil {
			tm = s.Dense()
		}
	}
	if tm == nil {
		return nil, fmt.Errorf("reorder: stage requires a traffic matrix")
	}
	model := p.Model
	if model == nil {
		model = netsim.NewModel(netsim.NewFlat())
	}
	res, err := Optimize(req.Cluster, m, model, tm, p.MaxSweeps)
	if err != nil {
		return nil, err
	}
	if p.OnResult != nil {
		p.OnResult(res)
	}
	return res.Map, nil
}

package treematch

import (
	"context"
	"fmt"

	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/place"
)

// policy adapts the TreeMatch-style mapper to the place registry. It
// consumes Request.Traffic, which must cover exactly NP ranks.
type policy struct{}

func (policy) Name() string { return "treematch" }

func (policy) Place(_ context.Context, req *place.Request) (*core.Map, error) {
	tm := commpat.SparseOf(req.Traffic)
	if tm == nil {
		return nil, fmt.Errorf("treematch: policy requires a traffic matrix")
	}
	return Map(req.Cluster, tm, req.NP)
}

func init() { place.Register(policy{}) }

package netorder

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

// BenchmarkStageRefine is lamamap's network-aware planning layer alone:
// node ordering then swap refinement of a 4096-rank csbnh map on
// 256×nehalem-ep, with the traffic already in hand as CSR (as
// commpat.Generate hands it over), so no stage pays a dense scan.
func BenchmarkStageRefine(b *testing.B) {
	const np = 4096
	sp, _ := hw.Preset("nehalem-ep")
	c := cluster.Homogeneous(256, sp)
	mapper, err := core.NewMapper(c, core.MustParseLayout("csbnh"), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := mapper.Map(np)
	if err != nil {
		b.Fatal(err)
	}
	for _, pattern := range []string{"stencil3d", "gtc"} {
		tm, err := commpat.Generate(pattern, np, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		for _, netSpec := range []string{"fat-tree", "torus"} {
			net, err := netsim.ParseNetwork(netSpec, c.NumNodes())
			if err != nil {
				b.Fatal(err)
			}
			req := &place.Request{Cluster: c, NP: np, Traffic: tm}
			stages := []place.Stage{&Stage{Net: net}, &Refine{Net: net}}
			b.Run(pattern+"/"+netSpec, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out := m
					for _, st := range stages {
						if out, err = st.Apply(context.Background(), req, out); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

package treematch

import (
	"fmt"
	"testing"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/hw"
)

// BenchmarkTreeMatch maps the traffic-aware requests of the churn
// workload: ring, stencil3d and gtc at np 256 and 512 on
// 1000×nehalem-ep, traffic already in CSR form.
func BenchmarkTreeMatch(b *testing.B) {
	sp, _ := hw.Preset("nehalem-ep")
	c := cluster.Homogeneous(1000, sp)
	for _, np := range []int{256, 512} {
		for _, pattern := range []string{"ring", "stencil3d", "gtc"} {
			tm, err := commpat.Generate(pattern, np, 1<<20)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/np=%d", pattern, np), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Map(c, tm, np); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

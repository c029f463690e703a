package main

import (
	"fmt"
	"math/rand"
	"sort"

	"lama/internal/engine"
	"lama/internal/hw"
)

// Op is one request of a workload's seeded sequence. Exactly one field is
// set: a placement or an event sent to lamad, or a plan run by lamamap.
type Op struct {
	Place *engine.Request `json:"place,omitempty"`
	Event *engine.Event   `json:"event,omitempty"`
	Plan  *Plan           `json:"plan,omitempty"`
}

// Plan is one network-aware lamamap invocation.
type Plan struct {
	Pattern string `json:"pattern"`
	Net     string `json:"net"`
}

// Workload shapes. The sizes and mixes are fixed here, not by flags, so a
// result names everything that produced it: its workload and its seed.
const (
	hitCluster = "hit"
	hitNodes   = 256 // 256 x nehalem-ep = 4096 PUs, filled by np=4096
	hitNP      = 4096

	churnCluster = "churn"
	churnNodes   = 1000
	// churnEventEvery places one cluster event at every churnEventEvery-th
	// position of the sequence. Each event purges the cluster's cache, and
	// between two events the 63 placements draw from 256 (np, layout)
	// pairs, so most of them miss.
	churnEventEvery = 64
	// Lama placements ask for np = churnNPStep * k, k in 1..churnNPSteps
	// (64 to 4096 ranks).
	churnNPStep  = 64
	churnNPSteps = 64
	// churnTreematchPct percent of the placements are traffic-aware.
	churnTreematchPct = 5
	// churnNet is the network the churn placements are priced on for
	// plan_cost_ratio.
	churnNet = "fat-tree"

	refineNodes = 256
	refineNP    = 4096

	// basePreset is the node type every workload's cluster starts from.
	basePreset = "nehalem-ep"
	// lamadConns is the closed loop's connection count (the host's 2
	// CPUs: one load process with at most nproc connections).
	lamadConns = 2
)

var (
	churnLayouts  = []string{"csbnh", "scbnh", "ncsbh", "hcsbn"}
	churnPatterns = []string{"ring", "stencil3d", "gtc"}
	churnTMNPs    = []int{256, 512}
	// churnAddPresets are the node types add-node events bring in; they
	// make the cluster heterogeneous, which exercises the paper's maximal
	// tree.
	churnAddPresets = []string{"magny-cours", "power7", "fig2", "dual-board"}

	refinePatterns = []string{"stencil3d", "gtc"}
	refineNets     = []string{"fat-tree", "torus"}
)

// sequence is a deterministic, unbounded stream of operations.
type sequence interface {
	next() Op
}

// newSequence returns the workload's operation stream for a seed.
func newSequence(workload string, seed int64) (sequence, error) {
	switch workload {
	case "hit-4k":
		return hitSeq{}, nil
	case "churn":
		return newChurnSeq(seed), nil
	case "refine":
		return &refineSeq{rng: rand.New(rand.NewSource(seed))}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want hit-4k, churn or refine)", workload)
}

// hitSeq repeats one cached request: every op is identical by design, so
// the seed does not change it.
type hitSeq struct{}

func (hitSeq) next() Op {
	return Op{Place: &engine.Request{Cluster: hitCluster, NP: hitNP}}
}

// refineSeq draws (pattern, network) pairs in seeded shuffled blocks of
// all four, so every run serves the same balanced mix in its own order.
type refineSeq struct {
	rng   *rand.Rand
	block []Plan
}

func (s *refineSeq) next() Op {
	if len(s.block) == 0 {
		for _, p := range refinePatterns {
			for _, n := range refineNets {
				s.block = append(s.block, Plan{Pattern: p, Net: n})
			}
		}
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	p := s.block[0]
	s.block = s.block[1:]
	return Op{Plan: &p}
}

// churnSeq mixes placements of many sizes and layouts with cluster events
// at fixed positions. It tracks the cluster it is mutating so that every
// event it emits changes the cluster (no-op events would not mint an
// epoch).
type churnSeq struct {
	rng   *rand.Rand
	i     int
	nodes []churnNode
	pus   map[string][]int // preset -> OS PU indices
}

type churnNode struct {
	preset string
	failed bool
	offPUs map[int]bool
}

func newChurnSeq(seed int64) *churnSeq {
	s := &churnSeq{rng: rand.New(rand.NewSource(seed)), pus: map[string][]int{}}
	for _, name := range append([]string{basePreset}, churnAddPresets...) {
		sp, _ := hw.Preset(name)
		for _, pu := range hw.New(sp).Objects(hw.LevelPU) {
			s.pus[name] = append(s.pus[name], pu.OS)
		}
		sort.Ints(s.pus[name])
	}
	for i := 0; i < churnNodes; i++ {
		s.nodes = append(s.nodes, churnNode{preset: basePreset})
	}
	return s
}

func (s *churnSeq) next() Op {
	s.i++
	if s.i%churnEventEvery == 0 {
		return Op{Event: s.event()}
	}
	if s.rng.Intn(100) < churnTreematchPct {
		return Op{Place: &engine.Request{
			Cluster: churnCluster,
			NP:      churnTMNPs[s.rng.Intn(len(churnTMNPs))],
			Policy:  "treematch",
			Pattern: churnPatterns[s.rng.Intn(len(churnPatterns))],
		}}
	}
	req := &engine.Request{
		Cluster: churnCluster,
		NP:      churnNPStep * (1 + s.rng.Intn(churnNPSteps)),
		Layout:  churnLayouts[s.rng.Intn(len(churnLayouts))],
	}
	if req.Layout == "csbnh" {
		req.Layout = "" // the default layout, as most clients send it
	}
	return Op{Place: req}
}

// event draws fail-node, fail-pus or add-node, each changing the cluster.
func (s *churnSeq) event() *engine.Event {
	switch s.rng.Intn(3) {
	case 0:
		i := s.liveNode()
		s.nodes[i].failed = true
		return &engine.Event{Type: "fail-node", Node: i}
	case 1:
		i := s.liveNode()
		n := &s.nodes[i]
		var usable []int
		for _, pu := range s.pus[n.preset] {
			if !n.offPUs[pu] {
				usable = append(usable, pu)
			}
		}
		k := 1 + s.rng.Intn(2)
		if k >= len(usable) {
			k = len(usable) - 1 // keep one PU so the node stays live
		}
		if n.offPUs == nil {
			n.offPUs = map[int]bool{}
		}
		pick := s.rng.Perm(len(usable))[:k]
		sort.Ints(pick)
		var off []int
		for _, j := range pick {
			off = append(off, usable[j])
			n.offPUs[usable[j]] = true
		}
		return &engine.Event{Type: "fail-pus", Node: i, PUs: off}
	default:
		preset := churnAddPresets[s.rng.Intn(len(churnAddPresets))]
		s.nodes = append(s.nodes, churnNode{preset: preset})
		return &engine.Event{Type: "add-node", Preset: preset}
	}
}

// liveNode picks a node that is not failed and has at least two usable
// PUs (so a fail-pus on it can leave one).
func (s *churnSeq) liveNode() int {
	for {
		i := s.rng.Intn(len(s.nodes))
		n := &s.nodes[i]
		if !n.failed && len(s.pus[n.preset])-len(n.offPUs) >= 2 {
			return i
		}
	}
}

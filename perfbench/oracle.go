package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"strconv"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/engine"
	"lama/internal/hw"
	"lama/internal/netsim"
)

// The correctness oracle. A lama placement must equal what the naive
// reference mapper (core.Mapper.MapReference) plans on the benchmark's own
// mirror of the cluster at the response's epoch; the comparison is on the
// response bytes, which the daemon encodes from engine.PlaceResponseJSON,
// so the oracle encodes its reference plan the same way. Other policies
// must pass core.Map.Validate on the mirror, and network-aware plans must
// not cost more than the default plan they refine.

// mirror replays a cluster's events through cluster.Snapshot,
// independently of the daemon, and keeps the snapshot of every epoch.
type mirror struct {
	snaps map[uint64]*cluster.Snapshot
	cur   *cluster.Snapshot
}

// newCluster builds the homogeneous base cluster the way lamad and
// lamamap parse "<nodes>x<preset>".
func newCluster(nodes int) *cluster.Cluster {
	sp, _ := hw.Preset(basePreset)
	return cluster.Homogeneous(nodes, sp)
}

// newMirror starts a mirror at a freshly built base cluster of the given
// size, the snapshot lamad registers at epoch 1.
func newMirror(nodes int) *mirror {
	return mirrorOf(cluster.SnapshotOf(newCluster(nodes)))
}

func mirrorOf(s *cluster.Snapshot) *mirror {
	return &mirror{snaps: map[uint64]*cluster.Snapshot{s.Epoch(): s}, cur: s}
}

// apply derives and records the snapshot after one event.
func (m *mirror) apply(ev *engine.Event) (*cluster.Snapshot, error) {
	s, err := deriveSnapshot(m.cur, ev)
	if err != nil {
		return nil, err
	}
	m.cur = s
	m.snaps[s.Epoch()] = s
	return s, nil
}

// deriveSnapshot is the event semantics lamad documents for
// POST /v1/clusters/{id}/events, written against cluster.Snapshot.
func deriveSnapshot(cur *cluster.Snapshot, ev *engine.Event) (*cluster.Snapshot, error) {
	switch ev.Type {
	case "fail-node":
		s, ok := cur.FailNode(ev.Node)
		if !ok {
			return nil, fmt.Errorf("fail-node: no node %d", ev.Node)
		}
		return s, nil
	case "fail-pus":
		s, changed := cur.FailPUs(ev.Node, hw.NewCPUSet(ev.PUs...))
		if changed == 0 {
			return nil, fmt.Errorf("fail-pus on node %d changes nothing", ev.Node)
		}
		return s, nil
	case "add-node":
		sp, ok := hw.Preset(ev.Preset)
		if !ok {
			return nil, fmt.Errorf("add-node: unknown preset %q", ev.Preset)
		}
		return cur.AppendNode(&cluster.Node{
			Name: fmt.Sprintf("node%d", cur.NumNodes()), Topo: hw.New(sp), Slots: ev.Slots,
		}), nil
	}
	return nil, fmt.Errorf("unknown event type %q", ev.Type)
}

var hashSeed = maphash.MakeSeed()

// digest identifies a /v1/place response without keeping it: a hash of
// its head (cluster, epoch, np, sweeps; the cached flag left out, so a
// hit and the miss that filled the cache digest alike) and a hash of its
// placements. The two are separate so that the oracle can hash the
// placements of every np from one reference plan (see referenceDigests).
type digest struct{ head, placements uint64 }

const placementsKey = `,"placements":[`

// placeDigest reads the epoch from the head of a /v1/place response and
// digests the response.
func placeDigest(body []byte) (epoch uint64, d digest, err error) {
	head := body
	if len(head) > 256 {
		head = head[:256]
	}
	i := bytes.Index(head, []byte(`,"epoch":`))
	k := bytes.Index(head, []byte(`,"cached":`))
	j := bytes.Index(head, []byte(placementsKey))
	if i < 0 || k < i || j < k {
		return 0, d, errors.New("response lacks epoch/cached/placements fields")
	}
	epoch, err = strconv.ParseUint(string(head[i+len(`,"epoch":`):k]), 10, 64)
	if err != nil {
		return 0, d, fmt.Errorf("response epoch: %v", err)
	}
	end := k + len(`,"cached":`)
	switch {
	case bytes.HasPrefix(body[end:], []byte("true")):
		end += 4
	case bytes.HasPrefix(body[end:], []byte("false")):
		end += 5
	default:
		return 0, d, errors.New("response cached flag is not a bool")
	}
	var h maphash.Hash
	h.SetSeed(hashSeed)
	h.Write(body[:k])
	h.Write(body[end:j])
	d.head = h.Sum64()
	h.Reset()
	h.Write(body[j:])
	d.placements = h.Sum64()
	return epoch, d, nil
}

// encodeResponse renders a response exactly as lamad's /v1/place writes
// it (a miss: cached is false).
func encodeResponse(name string, epoch uint64, np, sweeps int, ps []engine.PlacementJSON) []byte {
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(engine.PlaceResponseJSON{ // bytes.Buffer writes cannot fail
		Cluster: name, Epoch: epoch, NP: np, Sweeps: sweeps, Placements: ps,
	})
	return buf.Bytes()
}

// encodePlacement renders a plan as lamad's response to it.
func encodePlacement(name string, epoch uint64, m *core.Map) []byte {
	ps := make([]engine.PlacementJSON, 0, m.NumRanks())
	for i := range m.Placements {
		ps = append(ps, placementJSON(&m.Placements[i]))
	}
	return encodeResponse(name, epoch, m.NumRanks(), m.Sweeps, ps)
}

func placementJSON(p *core.Placement) engine.PlacementJSON {
	return engine.PlacementJSON{Rank: p.Rank, Node: p.Node, NodeName: p.NodeName, PUs: p.PUs}
}

// layoutOf is the layout a request asks for, with the engine's default.
func layoutOf(req *engine.Request) string {
	if req.Layout == "" {
		return "csbnh"
	}
	return req.Layout
}

// referenceDigests returns, for each np in nps, the digest of the
// response a default-option lama request must get at snapshot s: the
// reference mapper's plan, encoded like the daemon.
//
// The reference mapper places ranks one at a time along a fixed walk of
// the resource space and stops when np are placed, so its plan for a
// smaller np is a prefix of its plan for the largest. One reference run
// per (snapshot, layout) therefore serves every np, as long as that run
// needed a single sweep (every prefix then reports one sweep too);
// otherwise each np gets its own run.
func referenceDigests(name string, s *cluster.Snapshot, layoutText string, nps []int) (map[int]digest, error) {
	layout, err := core.ParseLayout(layoutText)
	if err != nil {
		return nil, err
	}
	reference := func(np int) (*core.Map, error) {
		mp, err := core.NewMapper(s.Cluster(), layout, core.Options{})
		if err != nil {
			return nil, err
		}
		m, err := mp.MapReference(np)
		if err != nil {
			return nil, fmt.Errorf("reference plan for np=%d: %v", np, err)
		}
		return m, nil
	}
	maxNP := 0
	for _, np := range nps {
		maxNP = max(maxNP, np)
	}
	ref, err := reference(maxNP)
	if err != nil {
		return nil, err
	}
	out := make(map[int]digest, len(nps))
	if ref.Sweeps != 1 {
		for _, np := range nps {
			m, err := reference(np)
			if err != nil {
				return nil, err
			}
			_, out[np], err = placeDigest(encodePlacement(name, s.Epoch(), m))
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	want := make(map[int]bool, len(nps))
	for _, np := range nps {
		want[np] = true
		// The head depends on np only; digest it from an empty plan.
		_, d, err := placeDigest(encodeResponse(name, s.Epoch(), np, 1, []engine.PlacementJSON{}))
		if err != nil {
			return nil, err
		}
		out[np] = d
	}
	var h maphash.Hash
	h.SetSeed(hashSeed)
	h.WriteString(placementsKey)
	for r := range ref.Placements {
		if r > 0 {
			h.WriteByte(',')
		}
		b, err := json.Marshal(placementJSON(&ref.Placements[r]))
		if err != nil {
			return nil, err
		}
		h.Write(b)
		if want[r+1] {
			closed := h // a copy: the walk goes on from h
			closed.WriteString("]}\n")
			d := out[r+1]
			d.placements = closed.Sum64()
			out[r+1] = d
		}
	}
	return out, nil
}

// decodePlacement turns a /v1/place response into a core.Map and checks
// it against the request and the snapshot it claims: rank count, node
// names, and core.Map.Validate (dense ranks, usable PUs, no sharing).
func decodePlacement(body []byte, req *engine.Request, s *cluster.Snapshot) (*core.Map, error) {
	var resp engine.PlaceResponseJSON
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decode response: %v", err)
	}
	if resp.NP != req.NP || len(resp.Placements) != req.NP {
		return nil, fmt.Errorf("response has np %d and %d placements, want %d", resp.NP, len(resp.Placements), req.NP)
	}
	c := s.Cluster()
	m := &core.Map{Sweeps: resp.Sweeps}
	for _, p := range resp.Placements {
		if n := c.Node(p.Node); n == nil || n.Name != p.NodeName {
			return nil, fmt.Errorf("rank %d on node %d named %q, not a node of epoch %d", p.Rank, p.Node, p.NodeName, s.Epoch())
		}
		m.Placements = append(m.Placements, core.Placement{Rank: p.Rank, Node: p.Node, NodeName: p.NodeName, PUs: p.PUs})
	}
	if err := m.Validate(c); err != nil {
		return nil, err
	}
	return m, nil
}

// planCost prices a plan under a traffic pattern on a network.
func planCost(c *cluster.Cluster, m *core.Map, tm *commpat.CSR, netSpec string) (float64, error) {
	net, err := netsim.ParseNetwork(netSpec, c.NumNodes())
	if err != nil {
		return 0, err
	}
	rep, err := netsim.NewModel(net).EvaluateSparse(c, m, tm)
	if err != nil {
		return 0, err
	}
	return rep.TotalTime, nil
}

// costRatio is plan_cost_ratio for one served plan: its netsim.Model
// cost over the cost of the default csbnh plan for the same pattern,
// cluster and network.
func costRatio(c *cluster.Cluster, served *core.Map, pattern string, netSpec string) (float64, error) {
	gen, ok := commpat.ByName(pattern)
	if !ok {
		return 0, fmt.Errorf("unknown pattern %q", pattern)
	}
	np := served.NumRanks()
	tm := gen(np, 1<<20).Sparse()
	layout, _ := core.ParseLayout("csbnh")
	mp, err := core.NewMapper(c, layout, core.Options{})
	if err != nil {
		return 0, err
	}
	base, err := mp.Map(np)
	if err != nil {
		return 0, err
	}
	want, err := planCost(c, base, tm, netSpec)
	if err != nil {
		return 0, err
	}
	got, err := planCost(c, served, tm, netSpec)
	if err != nil {
		return 0, err
	}
	return got / want, nil
}

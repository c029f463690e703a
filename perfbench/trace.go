package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/engine"
	"lama/internal/netorder"
	"lama/internal/netsim"
	"lama/internal/obs"
	"lama/internal/place"

	_ "lama/internal/place/all" // the policies lamad serves
)

// The traced run replays a workload's seeded sequence in-process, calling
// the public functions of each layer and recording a span around each
// call. The spans stay in memory and are written out at the end; a
// layer's figure is the mean self time of its spans. The same replay runs
// again with spans off, and the throughput difference is the tracing
// overhead.

// span is one traced interval. Spans of one operation share Req; Parent
// indexes the enclosing span (-1 for an operation's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer records spans when on; when off it does nothing, so the off
// replay does the same work without the clock reads.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, t0: time.Now()}
	if on {
		t.spans = make([]span, 0, 1<<16) // grows rarely: a run records ~1e4-1e5 spans
	}
	return t
}

func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// selfTimes returns each span name's self times in microseconds: a span's
// duration minus the part its child spans cover.
func selfTimes(spans []span) map[string][]float64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[i])/1e3)
	}
	return out
}

// layerMetrics are the per-layer figures every traced run reports, with
// their units. A figure the workload's sequence never reaches reads 0 and
// is listed in the run's notes as absent.
var layerMetrics = []struct{ name, unit string }{
	{"engine.handler_us", "us"},
	{"engine.place_us", "us"},
	{"engine.codec_us", "us"},
	{"engine.resp_kb", "KiB"},
	{"engine.event_us", "us"},
	{"engine.cache_hit_frac", "ratio"},
	{"engine.stale_per_event", "count"},
	{"engine.shed_frac", "ratio"},
	{"lamad.allocs_per_req", "count"},
	{"lamad.alloc_kb_per_req", "KiB"},
	{"lamad.gc_per_kreq", "count"},
	{"net.socket_us", "us"},
	{"http.event_p50_ms", "ms"},
	{"core.map_us", "us"},
	{"core.prune_us", "us"},
	{"core.shape_us", "us"},
	{"core.sweep_us", "us"},
	{"core.place_us", "us"},
	{"core.sweeps_per_map", "count"},
	{"cluster.derive_us", "us"},
	{"cluster.build_ms", "ms"},
	{"commpat.gen_us", "us"},
	{"treematch.map_us", "us"},
	{"netorder.order_ms", "ms"},
	{"netorder.refine_ms", "ms"},
	{"netorder.refine_swaps", "count"},
	{"netorder.refine_sweeps", "count"},
	{"netsim.evaluate_ms", "ms"},
	{"trace.rps_on", "1/s"},
	{"trace.rps_off", "1/s"},
	{"trace.overhead_frac", "ratio"},
}

// replay is one in-process re-execution of a workload's sequence.
type replay interface {
	step(ctx context.Context, i int, op Op) error
}

// recorder is the state every replay shares: the tracer and per-call
// values that are not span times (phase times, counts, sizes).
type recorder struct {
	t    *tracer
	vals map[string][]float64
}

func newRecorder(on bool) *recorder {
	return &recorder{t: newTracer(on), vals: map[string][]float64{}}
}

func (r *recorder) val(name string, v float64) {
	if r.t.on {
		r.vals[name] = append(r.vals[name], v)
	}
}

// mapPhased runs a mapper with the core phase timer attached when tracing
// and records the phase times of this one call.
func (r *recorder) mapPhased(ctx context.Context, mp *core.Mapper, np, parent, req int) (*core.Map, error) {
	var pt *obs.PhaseTimer
	if r.t.on {
		pt = obs.NewPhaseTimer()
		mp.Opts.Obs = &obs.Observer{Phases: pt}
	}
	id := r.t.begin("core.map", parent, req)
	m, err := mp.MapContext(ctx, np)
	r.t.end(id)
	mp.Opts.Obs = nil
	if err != nil || pt == nil {
		return m, err
	}
	tot := pt.Totals()
	r.val("core.prune_us", tot[obs.SpanPrune])
	r.val("core.shape_us", tot[obs.SpanBuildShape])
	r.val("core.sweep_us", tot[obs.SpanSweep])
	r.val("core.place_us", tot[obs.SpanPlace]-tot[obs.SpanPrune]-tot[obs.SpanBuildShape]-tot[obs.SpanSweep])
	r.val("core.sweeps_per_map", float64(m.Sweeps))
	return m, nil
}

// lamadReplay re-executes a daemon workload: each placement goes through
// the engine's HTTP handler (an httptest recorder in place of the
// socket) and, on a twin engine in the same state, through Engine.Place
// directly, so the handler's own share (decode and encode) is the
// difference. Misses are mapped once more by the layer below: core for
// lama, commpat and treematch for traffic-aware requests. Events go to
// both engines and to the benchmark's mirror, whose derivation is the
// cluster layer's share.
type lamadReplay struct {
	*recorder
	sp      lamadSpec
	mux     *http.ServeMux
	twin    *engine.Engine
	mirror  *mirror
	mappers map[string]*core.Mapper
}

// newDaemonEngine builds an engine the way lamad does: one registry,
// event ring and phase timer, and the cluster registered at epoch 1.
func newDaemonEngine(sp lamadSpec, s *cluster.Snapshot) (*engine.Engine, error) {
	reg := obs.NewRegistry()
	ring := obs.NewRingSink(obs.DefaultRingCapacity)
	o := &obs.Observer{Metrics: reg, Sink: ring, Phases: obs.NewPhaseTimer()}
	e := engine.New(engine.Config{Obs: o})
	return e, e.Register(sp.cluster, &engine.Snapshot{Clu: s})
}

func newLamadReplay(sp lamadSpec, rec *recorder) (*lamadReplay, error) {
	r := &lamadReplay{recorder: rec, sp: sp, mappers: map[string]*core.Mapper{}}
	// cluster.build: what lamad does per cluster before serving.
	var snap *cluster.Snapshot
	for k := 0; k < setupStarts; k++ {
		t0 := time.Now()
		snap = cluster.SnapshotOf(newCluster(sp.nodes))
		r.val("cluster.build_ms", float64(time.Since(t0))/1e6)
	}
	front, err := newDaemonEngine(sp, snap)
	if err != nil {
		return nil, err
	}
	r.mux = http.NewServeMux()
	front.Mount(r.mux)
	if r.twin, err = newDaemonEngine(sp, snap); err != nil {
		return nil, err
	}
	r.mirror = mirrorOf(snap)
	return r, nil
}

func (r *lamadReplay) serve(path string, v any) (*httptest.ResponseRecorder, error) {
	body, _ := json.Marshal(v) // plain struct, cannot fail
	rec := httptest.NewRecorder()
	r.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	return rec, nil
}

func (r *lamadReplay) step(ctx context.Context, i int, op Op) error {
	t := r.t
	root := t.begin("op", -1, i)
	defer t.end(root)
	if ev := op.Event; ev != nil {
		if _, err := r.serve("/v1/clusters/"+r.sp.cluster+"/events", ev); err != nil {
			return err
		}
		id := t.begin("engine.event", root, i)
		_, _, err := r.twin.ApplyEvent(r.sp.cluster, ev)
		t.end(id)
		if err != nil {
			return err
		}
		id = t.begin("cluster.derive", root, i)
		_, err = r.mirror.apply(ev)
		t.end(id)
		return err
	}
	req := op.Place
	h := t.begin("engine.handler", root, i)
	rec, err := r.serve("/v1/place", req)
	t.end(h)
	if err != nil {
		return err
	}
	r.val("engine.resp_kb", float64(rec.Body.Len())/1024)
	p := t.begin("engine.place", root, i)
	resp, err := r.twin.Place(ctx, req)
	t.end(p)
	if err != nil {
		return err
	}
	if t.on {
		hs, ps := t.spans[h], t.spans[p]
		r.val("engine.codec_us", float64((hs.End-hs.Start)-(ps.End-ps.Start))/1e3)
	}
	if resp.Cached {
		return nil
	}
	c := r.twin.Snapshot(r.sp.cluster).Clu.Cluster()
	if req.Policy == "" || req.Policy == "lama" {
		layout := layoutOf(req)
		mp := r.mappers[layout]
		if mp == nil {
			l, err := core.ParseLayout(layout)
			if err != nil {
				return err
			}
			mp = &core.Mapper{Layout: l}
			r.mappers[layout] = mp
		}
		mp.Cluster = c
		_, err := r.mapPhased(ctx, mp, req.NP, root, i)
		return err
	}
	gen, ok := commpat.ByName(req.Pattern)
	if !ok {
		return fmt.Errorf("unknown pattern %q", req.Pattern)
	}
	id := t.begin("commpat.gen", root, i)
	tm := gen(req.NP, 1<<20)
	t.end(id)
	id = t.begin("treematch.map", root, i)
	_, err = place.Place(ctx, req.Policy, &place.Request{Cluster: c, NP: req.NP, Traffic: tm})
	t.end(id)
	return err
}

// refineReplay re-executes lamamap's network-aware plan layer by layer:
// cluster build, traffic generation, the LAMA map, node ordering, swap
// refinement, and the final cost evaluation.
type refineReplay struct {
	*recorder
}

func (r *refineReplay) step(ctx context.Context, i int, op Op) error {
	t := r.t
	root := t.begin("op", -1, i)
	defer t.end(root)
	id := t.begin("cluster.build", root, i)
	c := newCluster(refineNodes)
	t.end(id)
	gen, ok := commpat.ByName(op.Plan.Pattern)
	if !ok {
		return fmt.Errorf("unknown pattern %q", op.Plan.Pattern)
	}
	id = t.begin("commpat.gen", root, i)
	tm := gen(refineNP, 1<<20).Sparse()
	t.end(id)
	layout, _ := core.ParseLayout("csbnh")
	mp, err := core.NewMapper(c, layout, core.Options{})
	if err != nil {
		return err
	}
	m, err := r.mapPhased(ctx, mp, refineNP, root, i)
	if err != nil {
		return err
	}
	net, err := netsim.ParseNetwork(op.Plan.Net, c.NumNodes())
	if err != nil {
		return err
	}
	mo := netsim.NewModel(net)
	id = t.begin("netorder.order", root, i)
	m, _, err = netorder.OrderNodes(c, mo, tm, m)
	t.end(id)
	if err != nil {
		return err
	}
	id = t.begin("netorder.refine", root, i)
	m, rr, err := netorder.RefineMapContext(ctx, c, mo, tm, m, 0)
	t.end(id)
	if err != nil {
		return err
	}
	r.val("netorder.refine_swaps", float64(rr.Swaps))
	r.val("netorder.refine_sweeps", float64(rr.Sweeps))
	id = t.begin("netsim.evaluate", root, i)
	_, err = mo.EvaluateSparse(c, m, tm)
	t.end(id)
	return err
}

func newReplay(cfg config, rec *recorder) (replay, error) {
	if sp, ok := lamadSpecs[cfg.workload]; ok {
		return newLamadReplay(sp, rec)
	}
	return &refineReplay{rec}, nil
}

// runReplay replays ops until limit operations or the deadline, and
// returns how many ran and how long they took.
func runReplay(ctx context.Context, cfg config, rp replay, limit int, deadline time.Time) (int, time.Duration, error) {
	seq, err := newSequence(cfg.workload, cfg.seed)
	if err != nil {
		return 0, 0, err
	}
	runtime.GC() // start both replays from a collected heap
	t0 := time.Now()
	n := 0
	for ; n < limit && time.Now().Before(deadline); n++ {
		if err := ctx.Err(); err != nil {
			return n, 0, err
		}
		if err := rp.step(ctx, n, seq.next()); err != nil {
			return n, 0, fmt.Errorf("replay op %d: %v", n, err)
		}
	}
	return n, time.Since(t0), nil
}

// traceRun is a --trace 1 run: for daemon workloads the untraced run
// first (the daemon's own counters), then the traced replay and the same
// replay with spans off.
func traceRun(ctx context.Context, cfg config, o *outcome) error {
	var clientMeanUs float64
	sp, isLamad := lamadSpecs[cfg.workload]
	if isLamad {
		r, err := runLamad(ctx, cfg, sp)
		if err != nil {
			return err
		}
		verifyLamad(o, r, sp)
		clientMeanUs = daemonLayers(o, r)
	}

	// A short untraced replay first, so that neither measured replay pays
	// the process's one-time costs (heap growth, first page faults).
	rpWarm, err := newReplay(cfg, newRecorder(false))
	if err != nil {
		return err
	}
	if _, _, err := runReplay(ctx, cfg, rpWarm, warmOps, time.Now().Add(time.Duration(cfg.seconds*float64(time.Second)/10))); err != nil {
		return err
	}

	traced := newRecorder(true)
	rp, err := newReplay(cfg, traced)
	if err != nil {
		return err
	}
	half := time.Duration(cfg.seconds * float64(time.Second) / 2)
	n, onDur, err := runReplay(ctx, cfg, rp, int(^uint(0)>>1), time.Now().Add(half))
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("the traced replay ran no operation in %v", half)
	}
	rpOff, err := newReplay(cfg, newRecorder(false))
	if err != nil {
		return err
	}
	_, offDur, err := runReplay(ctx, cfg, rpOff, n, time.Now().Add(time.Hour))
	if err != nil {
		return err
	}
	o.attempted += 2 * n

	units := map[string]string{}
	for _, m := range layerMetrics {
		units[m.name] = m.unit
	}
	for name, xs := range selfTimes(traced.t.spans) {
		if _, ok := units[name+"_us"]; ok {
			o.set(name+"_us", mean(xs), "us")
		} else if _, ok := units[name+"_ms"]; ok {
			o.set(name+"_ms", mean(xs)/1e3, "ms")
		}
	}
	for name, xs := range traced.vals {
		o.set(name, mean(xs), units[name])
	}
	if h, ok := o.metrics["engine.handler_us"]; ok && clientMeanUs > 0 {
		o.set("net.socket_us", clientMeanUs-h.Value, "us")
	}
	o.set("trace.rps_on", float64(n)/onDur.Seconds(), "1/s")
	o.set("trace.rps_off", float64(n)/offDur.Seconds(), "1/s")
	o.set("trace.overhead_frac", onDur.Seconds()/offDur.Seconds()-1, "ratio")
	o.notes["replayed_ops"] = n
	o.notes["spans"] = len(traced.t.spans)

	var absent []string
	for _, m := range layerMetrics {
		if _, ok := o.metrics[m.name]; !ok {
			o.set(m.name, 0, m.unit)
			absent = append(absent, m.name)
		}
	}
	if len(absent) > 0 {
		o.notes["absent"] = fmt.Sprintf("%v: the %s sequence never reaches these layers", absent, cfg.workload)
	}
	return writeSpans(cfg.spans, traced.t.spans)
}

// daemonLayers derives the daemon's per-layer counts from the untraced
// run: engine counters from /metrics.json and allocation and GC deltas
// from the heap profile header. It returns the client's mean placement
// latency in microseconds.
func daemonLayers(o *outcome, r *lamadRun) float64 {
	var places, events, lat float64
	var evLat []float64
	for k := range r.measured {
		s := &r.measured[k]
		if s.op.Event != nil {
			events++
			evLat = append(evLat, float64(s.lat)/1e6)
		} else {
			places++
			lat += float64(s.lat) / 1e3
		}
	}
	reqs := places + events
	d := func(k string) float64 { return float64(r.cAfter[k] - r.cBefore[k]) }
	hits, misses := d("lama_engine_cache_hits_total"), d("lama_engine_cache_misses_total")
	if hits+misses > 0 {
		o.set("engine.cache_hit_frac", hits/(hits+misses), "ratio")
	}
	if events > 0 {
		o.set("engine.stale_per_event", d("lama_engine_cache_stale_total")/events, "count")
		o.set("http.event_p50_ms", median(evLat), "ms")
	}
	if places > 0 {
		o.set("engine.shed_frac", d("lama_engine_shed_total")/places, "ratio")
	}
	m := func(k string) float64 { return r.after[k] - r.before[k] }
	o.set("lamad.allocs_per_req", m("Mallocs")/reqs, "count")
	o.set("lamad.alloc_kb_per_req", m("TotalAlloc")/1024/reqs, "KiB")
	o.set("lamad.gc_per_kreq", m("NumGC")/reqs*1000, "count")
	if places == 0 {
		return 0
	}
	return lat / places
}

// writeSpans writes the traced spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

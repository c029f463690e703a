package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lama/internal/engine"
	"lama/internal/obs"
)

// daemon is one lamad child process and the client connections to it.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	tr     *http.Transport
	client *http.Client
}

// startDaemon execs lamad on a free loopback port and waits until it
// reports its address.
func startDaemon(bin, clusters string) (*daemon, error) {
	cmd := exec.Command(filepath.Join(bin, "lamad"), "-listen", "127.0.0.1:0", "-clusters", clusters)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childAttr()
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start lamad: %v", err)
	}
	d := &daemon{cmd: cmd}
	line, err := bufio.NewReader(out).ReadString('\n')
	const prefix = "lamad: serving placements on "
	if err != nil || !strings.HasPrefix(line, prefix) {
		d.stop()
		return nil, fmt.Errorf("lamad did not report its address (read %q: %v)", line, err)
	}
	d.base = strings.TrimSpace(strings.TrimPrefix(line, prefix))
	d.tr = &http.Transport{
		MaxIdleConnsPerHost: lamadConns,
		MaxConnsPerHost:     lamadConns,
		DisableCompression:  true,
	}
	d.client = &http.Client{Transport: d.tr}
	return d, nil
}

// stop sends SIGTERM (lamad shuts down gracefully on it) and waits for
// the process to exit, killing it if it has not within five seconds.
func (d *daemon) stop() {
	if d.tr != nil {
		d.tr.CloseIdleConnections()
	}
	d.cmd.Process.Signal(syscall.SIGTERM) // an exited process is reaped below either way
	done := make(chan struct{})
	go func() {
		d.cmd.Wait() // exit status of a signalled daemon carries no information
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill() // Wait below returns once the kill lands
		<-done
	}
}

// post sends one JSON body and reads the whole response into buf. The
// returned duration runs from the send to the last response byte.
func (d *daemon) post(path string, body []byte, buf *bytes.Buffer) (int, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	buf.Reset()
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	_, err = buf.ReadFrom(resp.Body)
	lat := time.Since(t0)
	resp.Body.Close()
	return resp.StatusCode, lat, err
}

// get fetches a telemetry document.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// procCPU is the daemon's user+system CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s, the
// Linux USER_HZ).
func (d *daemon) procCPU() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// memStats reads runtime.MemStats figures from the daemon's heap profile
// header; gc forces a collection first, so HeapInuse is the live heap.
func (d *daemon) memStats(gc bool) (map[string]float64, error) {
	path := "/debug/pprof/heap?debug=1"
	if gc {
		path += "&gc=1"
	}
	data, err := d.get(path)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok || !strings.HasPrefix(line, "# ") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	for _, k := range []string{"HeapInuse", "Mallocs", "TotalAlloc", "NumGC"} {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("heap profile lacks %s", k)
		}
	}
	return out, nil
}

// counters reads the engine counters from /metrics.json.
func (d *daemon) counters() (map[string]int64, error) {
	data, err := d.get("/metrics.json")
	if err != nil {
		return nil, err
	}
	var snap obs.MetricsSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("decode /metrics.json: %v", err)
	}
	return snap.Counters, nil
}

// sample is one request the closed loop sent, with what the oracle needs
// afterwards. Bodies are kept only for responses checked by decoding.
type sample struct {
	i     int // sequence position; -1 for set-up probes
	op    Op
	lat   time.Duration
	err   string
	epoch uint64 // epoch the response reports
	sum   digest // placeDigest of a placement body
	floor uint64 // newest acknowledged event epoch when the request was sent
	body  []byte
}

// loop hands a sequence out to a fixed set of connections, each of which
// waits for its reply before taking the next operation (a closed loop).
// Events go out strictly in sequence order, one at a time, so the mirror
// can replay them in the same order.
type loop struct {
	ctx context.Context
	d   *daemon

	mu     sync.Mutex
	seq    sequence
	nextI  int
	events int // events handed out so far

	evMu   sync.Mutex
	evCond *sync.Cond
	evDone int // events acknowledged (or failed) so far

	acked atomic.Uint64
}

func newLoop(ctx context.Context, d *daemon, seq sequence) *loop {
	l := &loop{ctx: ctx, d: d, seq: seq}
	l.evCond = sync.NewCond(&l.evMu)
	return l
}

// take returns the next operation, its position and, for an event, its
// ordinal; ok is false once the limit or the deadline has passed, or the
// run is cancelled.
func (l *loop) take(limit int, deadline time.Time) (i int, op Op, ev int, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.nextI >= limit || time.Now().After(deadline) || l.ctx.Err() != nil {
		return 0, Op{}, 0, false
	}
	i, op = l.nextI, l.seq.next()
	l.nextI++
	if op.Event != nil {
		ev = l.events
		l.events++
	}
	return i, op, ev, true
}

// run drives lamadConns connections until limit operations have been
// taken or the deadline passes, and waits for every reply. It returns the
// samples in sequence order and the wall time from start to last reply.
func (l *loop) run(limit int, deadline time.Time) ([]sample, time.Duration) {
	var wg sync.WaitGroup
	per := make([][]sample, lamadConns)
	t0 := time.Now()
	for c := 0; c < lamadConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i, op, ev, ok := l.take(limit, deadline)
				if !ok {
					return
				}
				per[c] = append(per[c], l.do(i, op, ev, &buf))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	return all, wall
}

// do sends one operation. Digesting the body happens after the clock
// stops; only bodies the oracle must decode are copied.
func (l *loop) do(i int, op Op, ev int, buf *bytes.Buffer) sample {
	s := sample{i: i, op: op}
	if op.Event != nil {
		l.evMu.Lock()
		for l.evDone != ev {
			l.evCond.Wait()
		}
		l.evMu.Unlock()
		defer func() {
			l.evMu.Lock()
			l.evDone++
			l.evCond.Broadcast()
			l.evMu.Unlock()
		}()
		body, _ := json.Marshal(op.Event) // plain struct, cannot fail
		status, lat, err := l.d.post("/v1/clusters/"+churnCluster+"/events", body, buf)
		s.lat = lat
		if err != nil || status != http.StatusOK {
			s.err = fmt.Sprintf("event: status %d: %v %s", status, err, buf.Bytes())
			return s
		}
		var ack engine.EventResponseJSON
		if err := json.Unmarshal(buf.Bytes(), &ack); err != nil {
			s.err = fmt.Sprintf("event ack: %v", err)
			return s
		}
		s.epoch = ack.Epoch
		for {
			cur := l.acked.Load()
			if ack.Epoch <= cur || l.acked.CompareAndSwap(cur, ack.Epoch) {
				break
			}
		}
		return s
	}
	s.floor = l.acked.Load()
	body, _ := json.Marshal(op.Place) // plain struct, cannot fail
	status, lat, err := l.d.post("/v1/place", body, buf)
	s.lat = lat
	if err != nil || status != http.StatusOK {
		s.err = fmt.Sprintf("place: status %d: %v %s", status, err, buf.Bytes())
		return s
	}
	s.epoch, s.sum, err = placeDigest(buf.Bytes())
	if err != nil {
		s.err = err.Error()
		return s
	}
	if op.Place.Policy != "" && op.Place.Policy != "lama" {
		s.body = append([]byte(nil), buf.Bytes()...)
	}
	return s
}

// lamadSpec describes a daemon workload.
type lamadSpec struct {
	cluster string
	nodes   int
	probe   engine.Request // set-up's first placement
	events  bool           // the sequence carries cluster events
	// lat_tail_ms is the tailPct percentile of the timed samples; with
	// tailWindow > 0 it is the median of the percentiles of consecutive
	// windows of that many samples (see outcome.tail).
	tailPct, tailWindow int
}

var lamadSpecs = map[string]lamadSpec{
	// hit-4k's requests are all alike, so its tail is set by the shared
	// host, not by the requests: its p99 moved 2.5 times as much as its
	// p50 from one run to the next, and past the bound. p90 moved 1.5
	// times as much. A window of 1000 has 100 samples beyond its p90 and a
	// run holds ten or more windows, so a stall that covers part of a run
	// moves a few windows, not the figure.
	"hit-4k": {cluster: hitCluster, nodes: hitNodes, probe: engine.Request{Cluster: hitCluster, NP: hitNP}, tailPct: 90, tailWindow: 1000},
	// churn's p99 falls among its 5 % traffic-aware requests, whose
	// mapping work sets it; a window of 1000 would hold only about 50 of
	// them, so it pools the run.
	"churn": {cluster: churnCluster, nodes: churnNodes, probe: engine.Request{Cluster: churnCluster, NP: 64}, events: true, tailPct: 99},
}

// Set-up and warm-up sizes.
const (
	// setupStarts cold starts are timed per run; setup_s is their median.
	setupStarts = 25
	// memCycles event cycles are sampled for churn's mem_mb.
	memCycles = 5
	// warmOps operations run before the clock starts: they fill the
	// cache (hit-4k) and let both processes' heaps reach steady size.
	warmOps = 256
)

// lamadRun is what one untraced daemon run measured.
type lamadRun struct {
	samples  []sample // every request, set-up probes first
	measured []sample // the timed phase
	wall     time.Duration
	cpu      time.Duration
	before   map[string]float64 // memStats at the start of the timed phase
	after    map[string]float64 // memStats at its end
	heapLive float64            // live heap after the timed phase (see runLamad)
	cBefore  map[string]int64   // engine counters at the start of the timed phase
	cAfter   map[string]int64
	setups   []float64 // seconds per cold start
}

// runLamad runs set-up, warm-up and the timed closed loop against lamad.
func runLamad(ctx context.Context, cfg config, sp lamadSpec) (*lamadRun, error) {
	// The load generator runs on one P. Its work per request is small, and
	// a second P only adds a thread that competes with lamad's for the
	// host's CPUs. The verification after the run uses every P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seq, err := newSequence(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	clusters := fmt.Sprintf("%s=%dx%s", sp.cluster, sp.nodes, basePreset)
	probe, _ := json.Marshal(&sp.probe) // plain struct, cannot fail
	r := &lamadRun{}
	var d *daemon
	for k := 0; k < setupStarts; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		dk, err := startDaemon(cfg.bin, clusters)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		status, lat, err := dk.post("/v1/place", probe, &buf)
		r.setups = append(r.setups, time.Since(t0).Seconds())
		s := sample{i: -1, op: Op{Place: &sp.probe}, lat: lat}
		if err != nil || status != http.StatusOK {
			s.err = fmt.Sprintf("set-up probe: status %d: %v", status, err)
		} else if s.epoch, s.sum, err = placeDigest(buf.Bytes()); err != nil {
			s.err = err.Error()
		}
		r.samples = append(r.samples, s)
		if k < setupStarts-1 {
			dk.stop()
		} else {
			d = dk
		}
	}
	defer d.stop()

	l := newLoop(ctx, d, seq)
	warm, _ := l.run(warmOps, time.Now().Add(time.Hour))
	r.samples = append(r.samples, warm...)

	if r.before, err = d.memStats(false); err != nil {
		return nil, err
	}
	if r.cBefore, err = d.counters(); err != nil {
		return nil, err
	}
	cpu0, err := d.procCPU()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	r.measured, r.wall = l.run(int(^uint(0)>>1), deadline)
	cpu1, err := d.procCPU()
	if err != nil {
		return nil, err
	}
	r.cpu = cpu1 - cpu0
	if r.after, err = d.memStats(false); err != nil {
		return nil, err
	}
	if r.cAfter, err = d.counters(); err != nil {
		return nil, err
	}
	r.samples = append(r.samples, r.measured...)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(r.measured) == 0 {
		return nil, fmt.Errorf("no request completed in %.0f s", cfg.seconds)
	}

	// The live heap holds the placement cache, which an event empties. So
	// churn reads it at the same point of several event cycles, just
	// before an event, when the cache holds one whole epoch's placements,
	// and reports the median; hit-4k's cache never changes.
	cycles := 1
	if sp.events {
		cycles = memCycles
	}
	var heaps []float64
	firstEvent := l.nextI + churnEventEvery - 1 - l.nextI%churnEventEvery
	for k := 0; k < cycles; k++ {
		if sp.events {
			more, _ := l.run(firstEvent+k*churnEventEvery, time.Now().Add(time.Hour))
			r.samples = append(r.samples, more...)
		}
		// Two forced collections: the first moves sync.Pool contents to
		// the pools' victim caches, the second frees them, so what is left
		// is the heap the daemon actually holds on to.
		var live map[string]float64
		for gc := 0; gc < 2; gc++ {
			if live, err = d.memStats(true); err != nil {
				return nil, err
			}
		}
		heaps = append(heaps, live["HeapInuse"])
	}
	r.heapLive = median(heaps)
	return r, nil
}

// verifyLamad checks every sample against the oracle. It returns the
// plan-cost ratios of the traffic-aware placements of the timed phase.
func verifyLamad(o *outcome, r *lamadRun, sp lamadSpec) []float64 {
	m := newMirror(sp.nodes)
	// Events first, in sequence order: a placement sent while an event was
	// in flight may legitimately report the newer epoch.
	for k := range r.samples {
		s := &r.samples[k]
		if s.op.Event == nil {
			continue
		}
		o.attempted++
		// The mirror replays every event the daemon was sent, so later
		// placements are checked against the right snapshot even when this
		// event's request failed.
		want, err := m.apply(s.op.Event)
		switch {
		case err != nil:
			o.fail("op %d: mirror cannot apply %+v: %v", s.i, *s.op.Event, err)
		case s.err != "":
			o.fail("op %d: %s", s.i, s.err)
		case s.epoch != want.Epoch():
			o.fail("op %d: event acknowledged at epoch %d, mirror is at %d", s.i, s.epoch, want.Epoch())
		}
	}
	type refKey struct {
		epoch  uint64
		layout string
	}
	nps := map[refKey]map[int]bool{}
	var lama []*sample
	var other []*sample
	for k := range r.samples {
		s := &r.samples[k]
		if s.op.Event != nil {
			continue
		}
		o.attempted++
		switch {
		case s.err != "":
			o.fail("op %d: %s", s.i, s.err)
			continue
		case m.snaps[s.epoch] == nil:
			o.fail("op %d: placement reports unknown epoch %d", s.i, s.epoch)
			continue
		case s.epoch < s.floor:
			o.fail("op %d: placement at epoch %d after event acknowledged at epoch %d", s.i, s.epoch, s.floor)
			continue
		}
		if p := s.op.Place; p.Policy == "" || p.Policy == "lama" {
			k := refKey{s.epoch, layoutOf(p)}
			if nps[k] == nil {
				nps[k] = map[int]bool{}
			}
			nps[k][p.NP] = true
			lama = append(lama, s)
		} else {
			other = append(other, s)
		}
	}

	// Reference plans, one per distinct (epoch, layout), computed in
	// parallel now that the daemon is idle.
	keys := make([]refKey, 0, len(nps))
	for k := range nps {
		keys = append(keys, k)
	}
	refs := make([]map[int]digest, len(keys))
	errs := make([]error, len(keys))
	parallelFor(len(keys), func(j int) {
		k := keys[j]
		var list []int
		for np := range nps[k] {
			list = append(list, np)
		}
		refs[j], errs[j] = referenceDigests(sp.cluster, m.snaps[k.epoch], k.layout, list)
	})
	refOf := map[refKey]int{}
	for j, k := range keys {
		refOf[k] = j
	}
	for _, s := range lama {
		p := s.op.Place
		j := refOf[refKey{s.epoch, layoutOf(p)}]
		switch {
		case errs[j] != nil:
			o.fail("op %d: no reference plan for np=%d layout=%s at epoch %d: %v", s.i, p.NP, layoutOf(p), s.epoch, errs[j])
		case s.sum != refs[j][p.NP]:
			o.fail("op %d: np=%d layout=%s at epoch %d differs from MapReference", s.i, p.NP, layoutOf(p), s.epoch)
		}
	}

	// Traffic-aware placements: decoded, validated and priced.
	ratios := make([]float64, len(other))
	oerrs := make([]error, len(other))
	parallelFor(len(other), func(j int) {
		s := other[j]
		snap := m.snaps[s.epoch]
		served, err := decodePlacement(s.body, s.op.Place, snap)
		if err != nil {
			oerrs[j] = err
			return
		}
		ratios[j], oerrs[j] = costRatio(snap.Cluster(), served, s.op.Place.Pattern, churnNet)
	})
	var timed []float64
	for j, s := range other {
		if oerrs[j] != nil {
			o.fail("op %d: %s np=%d: %v", s.i, s.op.Place.Policy, s.op.Place.NP, oerrs[j])
			continue
		}
		if isMeasured(r, s) {
			timed = append(timed, ratios[j])
		}
	}
	return timed
}

// isMeasured reports whether a sample belongs to the timed phase.
func isMeasured(r *lamadRun, s *sample) bool {
	n := len(r.measured)
	return n > 0 && s.i >= r.measured[0].i && s.i <= r.measured[n-1].i
}

// parallelFor runs f(0..n-1) on GOMAXPROCS workers and waits for them.
func parallelFor(n int, f func(int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= n {
					return
				}
				f(j)
			}
		}()
	}
	wg.Wait()
}

// lamadMetrics turns a verified run into the end-to-end metrics.
func lamadMetrics(o *outcome, r *lamadRun, sp lamadSpec, ratios []float64) {
	var lat, evLat []float64
	for k := range r.measured {
		s := &r.measured[k]
		if s.err != "" {
			continue // a failed request has no latency worth reporting
		}
		ms := float64(s.lat) / float64(time.Millisecond)
		if s.op.Event != nil {
			evLat = append(evLat, ms)
		} else {
			lat = append(lat, ms)
		}
	}
	n := float64(len(r.measured))
	o.set("setup_s", median(r.setups), "s")
	o.set("lat_p50_ms", median(lat), "ms")
	o.tail("lat_tail_ms", lat, sp.tailPct, sp.tailWindow)
	o.set("thru_rps", n/r.wall.Seconds(), "1/s")
	o.set("cpu_ms_per_req", float64(r.cpu)/float64(time.Millisecond)/n, "ms")
	o.set("mem_mb", r.heapLive/(1<<20), "MiB")
	// Requests without a traffic pattern are served the default plan, so
	// a workload with none has ratio 1 by definition.
	ratio := 1.0
	if len(ratios) > 0 {
		ratio = mean(ratios)
	}
	o.set("plan_cost_ratio", ratio, "ratio")
	o.notes["patterned_requests"] = len(ratios)
	if len(evLat) > 0 {
		o.notes["event_p50_ms"] = median(evLat)
		o.notes["events"] = len(evLat)
	}
}

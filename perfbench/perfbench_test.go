package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/engine"
)

// The same seed gives a byte-identical operation sequence; another seed
// gives a different one (hit-4k repeats one request and has no seed).
func TestSequenceSeedDiscipline(t *testing.T) {
	for _, w := range []string{"hit-4k", "churn", "refine"} {
		gen := func(seed int64) []byte {
			seq, err := newSequence(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			return encodeOps(seq, 5000)
		}
		a, b, other := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different sequences", w)
		}
		if w != "hit-4k" && bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", w)
		}
	}
}

// Every churn event changes the cluster, so each one mints an epoch.
func TestChurnEventsAllApply(t *testing.T) {
	seq := newChurnSeq(3)
	m := newMirror(churnNodes)
	for i := 0; i < 200*churnEventEvery; i++ {
		op := seq.next()
		if op.Event == nil {
			continue
		}
		if _, err := m.apply(op.Event); err != nil {
			t.Fatalf("op %d %+v: %v", i, *op.Event, err)
		}
	}
}

// The prefix shortcut in referenceDigests agrees with one reference run
// per np, on a heterogeneous cluster with failures, for every churn layout.
func TestReferenceDigestsMatchPerNP(t *testing.T) {
	s := cluster.SnapshotOf(newCluster(6))
	for _, ev := range []*engine.Event{
		{Type: "fail-node", Node: 2},
		{Type: "fail-pus", Node: 0, PUs: []int{1, 5}},
		{Type: "add-node", Preset: "magny-cours"},
		{Type: "add-node", Preset: "fig2"},
	} {
		var err error
		if s, err = deriveSnapshot(s, ev); err != nil {
			t.Fatal(err)
		}
	}
	nps := []int{1, 7, 16, 33, 64, 100}
	for _, lt := range churnLayouts {
		got, err := referenceDigests("t", s, lt, nps)
		if err != nil {
			t.Fatal(err)
		}
		layout, _ := core.ParseLayout(lt)
		for _, np := range nps {
			mp, _ := core.NewMapper(s.Cluster(), layout, core.Options{})
			m, err := mp.MapReference(np)
			if err != nil {
				t.Fatal(err)
			}
			_, want, _ := placeDigest(encodePlacement("t", s.Epoch(), m))
			if got[np] != want {
				t.Errorf("layout %s np %d: prefix digest differs from a direct reference run", lt, np)
			}
		}
	}
}

// The oracle passes responses the engine really serves and catches each
// kind of wrong one: a corrupted lama plan, an invalid treematch plan,
// and a placement older than an acknowledged event.
func TestOracleCatchesCorruptedResponses(t *testing.T) {
	sp := lamadSpec{cluster: "t", nodes: 8}
	e, err := newDaemonEngine(sp, cluster.SnapshotOf(newCluster(sp.nodes)))
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	e.Mount(mux)
	post := func(path, body string) []byte {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	lama := &engine.Request{Cluster: "t", NP: 64, Layout: "scbnh"}
	tm := &engine.Request{Cluster: "t", NP: 16, Policy: "treematch", Pattern: "ring"}
	lamaBody := post("/v1/place", `{"cluster":"t","np":64,"layout":"scbnh"}`)
	tmBody := post("/v1/place", `{"cluster":"t","np":16,"policy":"treematch","pattern":"ring"}`)
	ev := &engine.Event{Type: "fail-node", Node: 0}
	post("/v1/clusters/t/events", `{"type":"fail-node","node":0}`)
	after := post("/v1/place", `{"cluster":"t","np":64,"layout":"scbnh"}`)

	placed := func(i int, req *engine.Request, body []byte, floor uint64) sample {
		s := sample{i: i, op: Op{Place: req}, floor: floor}
		var err error
		if s.epoch, s.sum, err = placeDigest(body); err != nil {
			t.Fatal(err)
		}
		if req.Policy != "" {
			s.body = body
		}
		return s
	}
	// corrupt moves rank 1 onto rank 0's PU.
	corrupt := func(body []byte) []byte {
		var pus [][]byte
		for _, part := range bytes.SplitN(body, []byte(`"pus":[`), 3)[1:] {
			pus = append(pus, part[:bytes.IndexByte(part, ']')])
		}
		return bytes.Replace(body, []byte(`"pus":[`+string(pus[1])+`]`), []byte(`"pus":[`+string(pus[0])+`]`), 1)
	}

	good := []sample{
		placed(0, lama, lamaBody, 0),
		placed(1, tm, tmBody, 0),
		{i: 2, op: Op{Event: ev}, epoch: 2},
		placed(3, lama, after, 2),
	}
	o := newOutcome()
	verifyLamad(o, &lamadRun{samples: good}, sp)
	if o.failed != 0 || o.attempted != 4 {
		t.Fatalf("genuine responses: %d of %d failed: %v", o.failed, o.attempted, o.failures)
	}

	bad := []sample{
		placed(0, lama, corrupt(lamaBody), 0),
		placed(1, tm, corrupt(tmBody), 0),
		{i: 2, op: Op{Event: ev}, epoch: 2},
		placed(3, lama, lamaBody, 2), // an epoch-1 plan after the epoch-2 acknowledgement
	}
	o = newOutcome()
	verifyLamad(o, &lamadRun{samples: bad}, sp)
	if o.failed != 3 {
		t.Fatalf("corrupted responses: %d failures, want 3: %v", o.failed, o.failures)
	}
}

// A traced replay records a span for each layer a step reaches, and a
// repeated placement is a cache hit that maps nothing.
func TestReplaySteps(t *testing.T) {
	sp := lamadSpec{cluster: churnCluster, nodes: 16}
	r, err := newLamadReplay(sp, newRecorder(true))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, op := range []Op{
		{Place: &engine.Request{Cluster: churnCluster, NP: 64}},
		{Place: &engine.Request{Cluster: churnCluster, NP: 64}},
		{Event: &engine.Event{Type: "add-node", Preset: "power7"}},
		{Place: &engine.Request{Cluster: churnCluster, NP: 32, Policy: "treematch", Pattern: "gtc"}},
	} {
		if err := r.step(ctx, i, op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	self := selfTimes(r.t.spans)
	for _, name := range []string{"op", "engine.handler", "engine.place", "core.map", "engine.event", "cluster.derive", "commpat.gen", "treematch.map"} {
		if len(self[name]) == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
	if n := len(self["core.map"]); n != 1 {
		t.Errorf("core.map ran %d times, want 1 (the second placement is a cache hit)", n)
	}
}

// encodeOps renders the first n operations of a sequence as JSON lines.
func encodeOps(seq sequence, n int) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < n; i++ {
		op := seq.next()
		enc.Encode(&op) // bytes.Buffer writes cannot fail
	}
	return buf.Bytes()
}

// The closed loop against a real engine over HTTP: concurrent placements
// and in-order events from the churn sequence all pass the oracle.
func TestClosedLoopPassesOracle(t *testing.T) {
	sp := lamadSpecs["churn"]
	e, err := newDaemonEngine(sp, cluster.SnapshotOf(newCluster(sp.nodes)))
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	e.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	const ops = 4 * churnEventEvery
	l := newLoop(context.Background(), &daemon{base: srv.URL, client: srv.Client()}, newChurnSeq(1))
	samples, _ := l.run(ops, time.Now().Add(time.Minute))
	if len(samples) != ops {
		t.Fatalf("ran %d operations, want %d", len(samples), ops)
	}
	o := newOutcome()
	verifyLamad(o, &lamadRun{samples: samples, measured: samples}, sp)
	if o.attempted != ops || o.failed != 0 {
		t.Fatalf("%d of %d failed: %v", o.failed, o.attempted, o.failures)
	}
}

// The windowed tail is the median of per-window percentiles: one window
// holding a stall moves the pooled p99 but not the reported figure, and
// the caller's samples keep their order.
func TestWindowedTail(t *testing.T) {
	xs := make([]float64, 5000)
	for k := range xs {
		xs[k] = float64(k%100) + 1 // each window of 100 holds 1..100
	}
	for k := 1000; k < 1100; k++ {
		xs[k] = 500 // one stall
	}
	o := newOutcome()
	o.tail("t", xs, 99, 100)
	if got := o.metrics["t"].Value; got < 99 || got > 100 {
		t.Errorf("windowed p99 = %v, want the clean windows' 99..100", got)
	}
	if pooled := o.notes["tail_pooled_ms"].(float64); pooled != 500 {
		t.Errorf("pooled p99 = %v, want the stall's 500", pooled)
	}
	if o.notes["tail_windows"] != 50 || xs[0] != 1 || xs[1] != 2 {
		t.Errorf("windows %v, samples reordered: %v", o.notes["tail_windows"], xs[:2])
	}
	o = newOutcome()
	o.tail("t", xs[:150], 99, 100) // fewer than two windows: pooled
	if got, want := o.metrics["t"].Value, quantile(xs[:150], 0.99); got != want {
		t.Errorf("short run p99 = %v, want pooled %v", got, want)
	}
}

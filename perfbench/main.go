// Command perfbench is the repository's end-to-end benchmark. It drives
// the real lamad daemon over loopback HTTP and the lamamap planner as a
// child process, checks every output against the library's oracles, and
// prints one JSON result line. With --trace 1 it instead replays the same
// seeded sequence in-process with a span around each layer's call and
// prints per-layer figures. README.md describes the workloads and every
// metric.
//
//	perfbench --workload hit-4k|churn|refine --seed N --seconds S --trace 0|1
//	perfbench compare OLD.jsonl NEW.jsonl
//
// run.py builds lamad, lamamap and this program from source and runs it;
// it is the intended entry point.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // directory holding lamad and lamamap
	spans    string // where a traced run writes its spans
	out      string // JSONL file the full record is appended to ("" for none)
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what --out appends: the result with its provenance.
type record struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Provenance provenance     `json:"provenance"`
	Notes      map[string]any `json:"notes"`
	Result     result         `json:"result"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: hit-4k, churn or refine")
	seed := fs.Int64("seed", 1, "seed of the operation sequence")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 prints per-layer figures from a traced in-process replay")
	bin := fs.String("bin", ".bench_build/bin", "directory holding the lamad and lamamap binaries")
	spans := fs.String("spans", "", "file a traced run writes its spans to (default .bench_build/spans-<workload>-<seed>.jsonl)")
	out := fs.String("out", "", "append the full record, with provenance, to this JSONL file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin, spans: *spans, out: *out}
	if _, err := newSequence(cfg.workload, cfg.seed); err != nil || cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload hit-4k|churn|refine, --seconds > 0 and --trace 0|1")
		return 2
	}
	if cfg.spans == "" {
		cfg.spans = fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", cfg.workload, cfg.seed)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o := newOutcome()
	var err error
	switch {
	case cfg.trace:
		err = traceRun(ctx, cfg, o)
	case cfg.workload == "refine":
		err = runRefine(ctx, cfg, o)
	default:
		sp := lamadSpecs[cfg.workload]
		var r *lamadRun
		if r, err = runLamad(ctx, cfg, sp); err == nil {
			t0 := time.Now()
			ratios := verifyLamad(o, r, sp)
			o.notes["verify_s"] = time.Since(t0).Seconds()
			lamadMetrics(o, r, sp, ratios)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, f := range o.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", f)
	}
	if o.attempted > 0 && !cfg.trace {
		o.set("ok_frac", float64(o.attempted-o.failed)/float64(o.attempted), "ratio")
	}

	prov := currentProvenance()
	rec := record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Provenance: prov, Notes: o.notes,
		Result: result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics},
	}
	if cfg.out != "" {
		if err := appendRecord(cfg.out, &rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	info, err := json.Marshal(struct {
		Provenance provenance     `json:"provenance"`
		Notes      map[string]any `json:"notes"`
	}{prov, o.notes})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rec.Result)
	if err != nil { // a metric that is not a finite number
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("perfbench: %s\n", info)
	fmt.Println(string(line))
	return 0
}

// childAttr makes a child process die with the benchmark: lamad and
// lamamap are never left running, even when the benchmark is killed.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

func appendRecord(path string, rec *record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

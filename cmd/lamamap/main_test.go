package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunLevel3(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-np", "24", "-cluster", "2xfig2", "--",
		"--lama-map", "scbnh", "--bind-to", "core"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"process layout:    scbnh",
		"abstraction level: 3",
		"node0:", "socket 1:", "[h1: 12]",
		"binding width (rank 0)", "2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunLevel2Shortcut(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-np", "4", "-cluster", "1xnehalem-ep", "--", "--map-by", "socket"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "abstraction level: 2") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunHostfile(t *testing.T) {
	dir := t.TempDir()
	hf := filepath.Join(dir, "hosts")
	if err := os.WriteFile(hf, []byte("a slots=4 spec=fig2\nb slots=4 spec=fig2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-np", "4", "-hostfile", hf, "--", "--bynode"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "a") || !strings.Contains(out.String(), "2 nodes") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunRankfile(t *testing.T) {
	dir := t.TempDir()
	rf := filepath.Join(dir, "ranks")
	if err := os.WriteFile(rf, []byte("rank 0=node0 slot=0\nrank 1=node1 slot=0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-np", "2", "-cluster", "2xfig2", "-rankfile", rf}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "abstraction level: 4") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-np", "4", "-cluster", "junk"},                      // bad cluster syntax
		{"-np", "4", "-cluster", "0xfig2"},                    // bad node count
		{"-np", "4", "-cluster", "1xbogus~"},                  // bad spec
		{"-np", "0", "-cluster", "1xfig2"},                    // bad np
		{"-np", "4", "-cluster", "1xfig2", "--", "--nope"},    // bad mpirun arg
		{"-np", "99", "-cluster", "1xfig2"},                   // oversubscribe
		{"-np", "4", "-hostfile", "/does/not/exist"},          // missing hostfile
		{"-np", "4", "-cluster", "1xfig2", "-rankfile", "/x"}, // missing rankfile
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-np", "4", "-cluster", "1xfig2", "-json", "--", "--lama-map", "scbnh"}, &out); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(out.Bytes(), &decoded); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out.String())
	}
	if decoded["layout"] != "scbnh" {
		t.Fatalf("layout = %v", decoded["layout"])
	}
}

func TestRunEmitRankfile(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-np", "4", "-cluster", "1xfig2", "-emit-rankfile", "--", "--lama-map", "scbnh"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "rank 0=node0 slot=0") {
		t.Fatalf("rankfile:\n%s", out.String())
	}
	if strings.Count(out.String(), "\n") != 4 {
		t.Fatalf("want 4 lines:\n%s", out.String())
	}
}

func TestRunTrace(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-np", "4", "-cluster", "1xfig2", "-trace", "6", "--", "--lama-map", "scbnh"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "iteration trace") || !strings.Contains(out.String(), "mapped rank 0") {
		t.Fatalf("trace missing:\n%s", out.String())
	}
	// Trace rejects rankfile mode.
	var bad bytes.Buffer
	err := run([]string{"-np", "1", "-cluster", "1xfig2", "-trace", "3", "--", "--rankfile-text", "rank 0=node0 slot=0"}, &bad)
	if err == nil {
		t.Fatal("trace with rankfile should fail")
	}
}

// TestObservabilityFlags checks the shared -trace-out/-metrics-out wiring:
// the mapping and bind phases land in the report and the trace carries the
// map completion event.
func TestObservabilityFlags(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.jsonl")
	reportPath := filepath.Join(dir, "m.json")
	var out bytes.Buffer
	err := run([]string{"-np", "24", "-cluster", "2xfig2",
		"-trace-out", tracePath, "-metrics-out", reportPath,
		"--", "--lama-map", "scbnh", "--bind-to", "core"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trace), `"src":"map"`) || !strings.Contains(string(trace), `"event":"done"`) {
		t.Fatalf("trace missing map done event:\n%s", trace)
	}
	report, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"schema": "runreport/v1"`, `"tool": "lamamap"`,
		`"prune"`, `"build-shape"`, `"sweep"`, `"place"`, `"bind"`,
		`"lama_map_nodes_used"`} {
		if !strings.Contains(string(report), want) {
			t.Fatalf("report missing %s:\n%s", want, report)
		}
	}
}

// TestBytesMustBePositiveAndFinite: a -bytes value that is NaN, ±Inf or
// not positive is a usage error, not a plan on empty, infinite or NaN
// traffic (with which no treematch weight compares greater than -1).
func TestBytesMustBePositiveAndFinite(t *testing.T) {
	for _, bad := range []string{"NaN", "-1", "+Inf"} {
		for _, tail := range [][]string{
			{"-policy", "treematch", "-pattern", "ring", "-check"},
			{"-pattern", "ring", "-net", "fat-tree", "-net-refine", "-check"},
		} {
			args := append([]string{"-np", "64", "-cluster", "4xnehalem-ep", "-bytes", bad}, tail...)
			var out bytes.Buffer
			err := run(args, &out)
			if err == nil || !strings.Contains(err.Error(), "-bytes") {
				t.Errorf("run(%v) = %v, want a -bytes usage error", args, err)
			}
			if out.Len() != 0 {
				t.Errorf("run(%v) printed %q", args, out.String())
			}
		}
	}
}

// TestNetRefinePlansPinned pins the -json bytes of the network-refined
// plans to the output the dense-traffic implementation produced, so the
// CSR traffic path is checked to change no placement.
func TestNetRefinePlansPinned(t *testing.T) {
	want := map[string]string{
		"stencil3d/fat-tree": "61e3e110b0b232b56332a6bd1db438d0b633a75c9edd4ba913e0fe24aa06c140",
		"stencil3d/torus":    "4cbfb90517845e6088077be05bc3e30088829c49465769720c88af4c7f140711",
		"gtc/fat-tree":       "b5f9b0a5600384524d00d184102f6facdbbee5f9f86f6d60c69a1792ac73df0d",
		"gtc/torus":          "dee0e2fb9cdcdf0887c4dddf4b828e42846331566d9923a9d19d44891ee08aa6",
	}
	for _, pattern := range []string{"stencil3d", "gtc"} {
		for _, net := range []string{"fat-tree", "torus"} {
			var out bytes.Buffer
			if err := run([]string{"-np", "192", "-cluster", "24xnehalem-ep", "-pattern", pattern,
				"-net", net, "-net-refine", "-json"}, &out); err != nil {
				t.Fatal(err)
			}
			key := pattern + "/" + net
			if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != want[key] {
				t.Errorf("%s: -json sha256 %s, want %s", key, got, want[key])
			}
		}
	}
}

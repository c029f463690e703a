package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenance says where a result was measured and on what code. Host is
// the signature results must share to be compared.
type provenance struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_revision"`
	SourceHash string `json:"source_sha256"`
	Host       string `json:"host_signature"`
}

func currentProvenance() provenance {
	p := provenance{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     gitRevision(),
		SourceHash: sourceHash("."),
	}
	p.Host = fmt.Sprintf("%s|%d|%d", p.CPUModel, p.NumCPU, p.GOMAXPROCS)
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRevision is HEAD when the benchmark runs inside a git checkout, and
// "none" otherwise; the source hash identifies the code either way.
func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and module file under root (build
// output excluded), in path order.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		io.Copy(h, f) // a short read only changes the digest
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// compareMain prints, for every workload and metric in two sets of
// records written by --out, the median of each set and the change, and
// warns when the sets come from different hosts.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.jsonl NEW.jsonl")
		return 2
	}
	old, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cur, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	hosts := map[string]bool{}
	for _, r := range append(append([]record(nil), old...), cur...) {
		hosts[r.Provenance.Host] = true
	}
	if len(hosts) > 1 {
		var hs []string
		for h := range hosts {
			hs = append(hs, h)
		}
		sort.Strings(hs)
		fmt.Printf("WARNING: records come from %d different hosts; differences may be the host, not the code:\n", len(hs))
		for _, h := range hs {
			fmt.Printf("  %s\n", h)
		}
	}
	type key struct{ workload, metric string }
	vals := func(rs []record) map[key][]float64 {
		out := map[key][]float64{}
		for _, r := range rs {
			for name, m := range r.Result.Metrics {
				k := key{r.Workload, name}
				out[k] = append(out[k], m.Value)
			}
		}
		return out
	}
	ov, cv := vals(old), vals(cur)
	var keys []key
	for k := range ov {
		if _, ok := cv[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].workload != keys[b].workload {
			return keys[a].workload < keys[b].workload
		}
		return keys[a].metric < keys[b].metric
	})
	fmt.Printf("%-8s %-24s %6s %14s %14s %9s\n", "workload", "metric", "runs", "old median", "new median", "change")
	for _, k := range keys {
		o, c := median(ov[k]), median(cv[k])
		change := "n/a"
		if o != 0 {
			change = fmt.Sprintf("%+.1f%%", (c-o)/o*100)
		}
		fmt.Printf("%-8s %-24s %3d/%-3d %14.6g %14.6g %9s\n", k.workload, k.metric, len(ov[k]), len(cv[k]), o, c, change)
	}
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	dec := json.NewDecoder(f)
	for dec.More() {
		var r record
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		out = append(out, r)
	}
	return out, nil
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"lama/internal/core"
)

// refine runs lamamap as a child process, one plan at a time.

// refineTailPct is the tail refine gates on: at a few plans per second a
// run holds about a hundred samples, so p80 keeps ten or more beyond it
// even on a slow host.
const refineTailPct = 80

// plannerRun is one lamamap invocation.
type plannerRun struct {
	plan   *Plan // nil for the set-up invocation
	lat    time.Duration
	cpu    time.Duration
	maxRSS float64 // MiB
	sum    uint64
	err    string
}

// plannerArgs is the lamamap command line for a plan (nil: the set-up
// invocation without -pattern/-net).
func plannerArgs(p *Plan) []string {
	args := []string{"-np", strconv.Itoa(refineNP), "-cluster", fmt.Sprintf("%dx%s", refineNodes, basePreset)}
	if p != nil {
		args = append(args, "-pattern", p.Pattern, "-net", p.Net, "-net-refine")
	}
	return append(args, "-json")
}

// runPlanner execs lamamap once, capturing its output into buf.
func runPlanner(bin string, p *Plan, buf *bytes.Buffer) plannerRun {
	r := plannerRun{plan: p}
	buf.Reset()
	cmd := exec.Command(filepath.Join(bin, "lamamap"), plannerArgs(p)...)
	cmd.Stdout = buf
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childAttr()
	t0 := time.Now()
	err := cmd.Run()
	r.lat = time.Since(t0)
	if err != nil {
		r.err = fmt.Sprintf("lamamap %v: %v", plannerArgs(p), err)
		return r
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		r.maxRSS = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	var h maphash.Hash
	h.SetSeed(hashSeed)
	h.Write(buf.Bytes())
	r.sum = h.Sum64()
	return r
}

// planKey groups runs by plan; the zero Plan is the set-up invocation.
func planKey(p *Plan) Plan {
	if p == nil {
		return Plan{}
	}
	return *p
}

// runRefine measures the refine workload. Each distinct plan's first
// output is kept and fully checked afterwards; every later output of the
// same plan must hash to the same bytes (lamamap is deterministic).
func runRefine(ctx context.Context, cfg config, o *outcome) error {
	seq, err := newSequence(cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	first := map[Plan][]byte{}
	firstSum := map[Plan]uint64{}
	var buf bytes.Buffer
	// runOne runs one plan and compares its output with the first output of
	// the same plan, keeping that first output for verifyPlans.
	runOne := func(p *Plan) plannerRun {
		r := runPlanner(cfg.bin, p, &buf)
		if r.err != "" {
			return r
		}
		k := planKey(p)
		if want, ok := firstSum[k]; !ok {
			firstSum[k] = r.sum
			first[k] = append([]byte(nil), buf.Bytes()...)
		} else if r.sum != want {
			r.err = fmt.Sprintf("lamamap %v: output differs from the first run of the same plan", k)
		}
		return r
	}

	var setups []float64
	var all []plannerRun
	for k := 0; k < setupStarts; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		r := runOne(nil)
		all = append(all, r)
		setups = append(setups, r.lat.Seconds())
	}

	var runs []plannerRun
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	t0 := time.Now()
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		r := runOne(seq.next().Plan)
		all = append(all, r)
		runs = append(runs, r)
	}
	wall := time.Since(t0)

	ratios, bad, err := verifyPlans(first)
	if err != nil {
		return err
	}
	for _, r := range all {
		o.attempted++
		if r.err != "" {
			o.fail("%s", r.err)
		} else if err := bad[planKey(r.plan)]; err != nil {
			o.fail("lamamap %v: %v", planKey(r.plan), err)
		}
	}

	byPlan := map[Plan][]float64{}
	rssByPlan := map[Plan][]float64{}
	var lat, served []float64
	var cpu time.Duration
	for _, r := range runs {
		if r.err != "" {
			continue
		}
		ms := float64(r.lat) / float64(time.Millisecond)
		k := planKey(r.plan)
		byPlan[k] = append(byPlan[k], ms)
		lat = append(lat, ms)
		rssByPlan[k] = append(rssByPlan[k], r.maxRSS)
		cpu += r.cpu
		if ratio, ok := ratios[k]; ok {
			served = append(served, ratio)
		}
	}
	if len(lat) == 0 {
		return fmt.Errorf("no lamamap run succeeded in %.0f s", cfg.seconds)
	}
	n := float64(len(lat))
	o.set("setup_s", median(setups), "s")
	o.set("lat_p50_ms", medianOfMedians(byPlan), "ms")
	o.tail("lat_tail_ms", lat, refineTailPct, 0)
	o.set("thru_rps", n/wall.Seconds(), "1/s")
	o.set("cpu_ms_per_req", float64(cpu)/float64(time.Millisecond)/n, "ms")
	o.set("mem_mb", medianOfMedians(rssByPlan), "MiB")
	o.set("plan_cost_ratio", mean(served), "ratio")
	o.notes["plans"] = len(lat)
	return nil
}

// medianOfMedians is the median of the per-plan medians. The four plans
// differ clearly in time and memory, so the pooled median would sit in the
// gap between the lighter and the heavier pair and swing with each run's
// extremes; the median of the per-plan medians does not.
func medianOfMedians(byPlan map[Plan][]float64) float64 {
	var meds []float64
	for _, xs := range byPlan {
		meds = append(meds, median(xs))
	}
	return median(meds)
}

// verifyPlans decodes each distinct plan's first output against the
// cluster, checks the set-up plan against MapReference, and prices each
// network-aware plan against the default plan. A refined plan may not
// cost more than the plan it started from. It returns the cost ratio of
// every good network-aware plan and the reason each bad plan failed.
func verifyPlans(first map[Plan][]byte) (map[Plan]float64, map[Plan]error, error) {
	c := newCluster(refineNodes)
	ratios := map[Plan]float64{}
	bad := map[Plan]error{}
	for k, data := range first {
		m, err := core.DecodeMap(data, c)
		if err != nil {
			bad[k] = err
			continue
		}
		if k == (Plan{}) {
			layout, _ := core.ParseLayout("csbnh")
			mp, err := core.NewMapper(c, layout, core.Options{})
			if err != nil {
				return nil, nil, err
			}
			ref, err := mp.MapReference(refineNP)
			if err != nil {
				return nil, nil, err
			}
			if !samePlacements(m, ref) {
				bad[k] = fmt.Errorf("default plan differs from MapReference")
			}
			continue
		}
		ratio, err := costRatio(c, m, k.Pattern, k.Net)
		switch {
		case err != nil:
			bad[k] = fmt.Errorf("pricing: %v", err)
		case ratio > 1+1e-9:
			bad[k] = fmt.Errorf("refined plan costs %.6f of the default plan", ratio)
		default:
			ratios[k] = ratio
		}
	}
	return ratios, bad, nil
}

// samePlacements compares two plans rank by rank: node and PUs.
func samePlacements(a, b *core.Map) bool {
	if a.NumRanks() != b.NumRanks() {
		return false
	}
	for i := range a.Placements {
		pa, pb := &a.Placements[i], &b.Placements[i]
		if pa.Node != pb.Node || len(pa.PUs) != len(pb.PUs) {
			return false
		}
		for j := range pa.PUs {
			if pa.PUs[j] != pb.PUs[j] {
				return false
			}
		}
	}
	return true
}

package main

import (
	"fmt"
	"sort"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome accumulates one run: request accounting, failures, metrics, and
// notes (sample counts and figures that are printed but not gated).
type outcome struct {
	attempted, failed int
	failures          []string
	metrics           map[string]metric
	notes             map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, notes: map[string]any{}}
}

// maxListedFailures bounds the failure descriptions kept for stderr.
const maxListedFailures = 20

// fail counts one failed request and keeps its description.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < maxListedFailures {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// quantile returns the q-quantile (0..1) of xs with linear interpolation
// between order statistics. xs is left in its order.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tail reports the latency percentile a workload gates on. xs is in
// sequence order. With window > 0 and at least two whole windows of
// samples, the run is cut into consecutive windows of that many samples
// (the remainder joins the last) and the reported figure is the median of
// the windows' percentiles, so one stall of the host moves one window,
// not the run's figure. Otherwise the percentile of the pooled samples is
// reported. The notes give the sample count, the window count, the pooled
// percentile, and whether each window had ten samples beyond it.
func (o *outcome) tail(name string, xs []float64, pct, window int) {
	per := len(xs)
	var wins []float64
	if window > 0 && len(xs) >= 2*window {
		per = window
		n := len(xs) / window
		for k := 0; k < n; k++ {
			hi := (k + 1) * window
			if k == n-1 {
				hi = len(xs)
			}
			wins = append(wins, quantile(xs[k*window:hi], float64(pct)/100))
		}
	}
	pooled := quantile(xs, float64(pct)/100)
	if len(wins) > 0 {
		o.set(name, median(wins), "ms")
	} else {
		o.set(name, pooled, "ms")
	}
	beyond := float64(per) * float64(100-pct) / 100
	o.notes["tail_percentile"] = pct
	o.notes["tail_windows"] = len(wins)
	o.notes["tail_pooled_ms"] = pooled
	o.notes["latency_samples"] = len(xs)
	if beyond < 10 {
		o.notes["tail_warning"] = fmt.Sprintf("only %.1f samples beyond p%d; the run was too short for it", beyond, pct)
	}
}

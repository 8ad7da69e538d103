package main

import (
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie above a percentile for it to
// be reported. Fewer is an error for that metric, never a silent value.
const minBeyond = 10

// percentile returns the nearest-rank pc-th percentile (pc in 1..99) of
// xs, which it sorts in place, or an error when fewer than minBeyond
// samples lie above it.
func percentile(xs []float64, pc int) (float64, error) {
	n := len(xs)
	rank := (pc*n + 99) / 100 // ceil(pc·n/100), 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, need %d", pc, n, max(n-rank, 0), minBeyond)
	}
	sort.Float64s(xs)
	return xs[rank-1], nil
}

// median returns the middle value of xs (sorted in place); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// value is one reported metric: its number, the samples behind it (0
// for a value that is not a sample statistic) and, instead of a number,
// the reason it could not be measured.
type value struct {
	v   float64
	n   int
	err error
}

// results collects the metrics of one run by name.
type results map[string]value

func (r results) set(name string, v float64, n int) { r[name] = value{v: v, n: n} }

// pcts records name.p50 (and name.p99 when asked) over xs.
func (r results) pcts(name string, xs []float64, pcs ...int) {
	for _, pc := range pcs {
		v, err := percentile(xs, pc)
		r[fmt.Sprintf("%s.p%d", name, pc)] = value{v: v, n: len(xs), err: err}
	}
}

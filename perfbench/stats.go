package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/obs/span"
)

// minBeyond is the percentile rule: a reported percentile needs at least
// this many samples above it, or its value rests on a handful of
// outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, the number of samples ranked above it, and whether that number
// meets the percentile rule. An empty xs yields (0, 0, false).
func percentile(xs []float64, p float64) (v float64, beyond int, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	beyond = len(s) - rank
	return s[rank-1], beyond, beyond >= minBeyond
}

// median is the 50th nearest-rank percentile.
func median(xs []float64) float64 {
	v, _, _ := percentile(xs, 50)
	return v
}

// highTail is the 95th percentile of xs when the percentile rule allows
// it (at least 200 samples), and the median otherwise.
func highTail(xs []float64) float64 {
	if v, _, ok := percentile(xs, 95); ok {
		return v
	}
	return median(xs)
}

// errorRate is failed operations over attempted ones. Refused requests
// count as failed: the caller did not get what it asked for.
func errorRate(attempted, failed int) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// layerTime is the accumulated time of one span name.
type layerTime struct {
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // sum of durations minus the part covered by children
}

// selfTimes aggregates spans by "layer.name". A span's self time is its
// duration minus the union of its children's intervals clipped to it, so
// children that overlap one another (parallel work under one parent) are
// not subtracted twice.
func selfTimes(recs []span.Record) map[string]layerTime {
	children := map[uint64][]span.Record{}
	for _, r := range recs {
		if r.Parent != 0 {
			children[r.Parent] = append(children[r.Parent], r)
		}
	}
	out := map[string]layerTime{}
	for _, r := range recs {
		lt := out[r.Layer+"."+r.Name]
		lt.Count++
		lt.Total += r.Dur
		lt.Self += r.Dur - covered(r.Start, r.End(), children[r.ID])
		out[r.Layer+"."+r.Name] = lt
	}
	return out
}

// covered returns how much of [start, end) the union of kids' intervals
// covers.
func covered(start, end time.Time, kids []span.Record) time.Duration {
	type iv struct{ lo, hi time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End()
		if lo.Before(start) {
			lo = start
		}
		if hi.After(end) {
			hi = end
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo.Before(ivs[b].lo) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.lo.After(cur.hi):
			if v.hi.After(cur.hi) {
				cur.hi = v.hi
			}
		default:
			total += cur.hi.Sub(cur.lo)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi.Sub(cur.lo)
	}
	return total
}

// meanSelf returns the mean self time of one span name in the given
// unit, or 0 when no such span was recorded.
func meanSelf(st map[string]layerTime, key string, unit time.Duration) float64 {
	lt := st[key]
	if lt.Count == 0 {
		return 0
	}
	return float64(lt.Self) / float64(lt.Count) / float64(unit)
}

package main

import (
	"fmt"
	"strconv"
	"strings"
)

// registry is a parsed /metrics.txt dump: counters and gauges by name,
// and the summary fields of each histogram (count, mean, p50, …) and
// time series (samples, time_mean, max) by name.
// A counter the program never incremented is absent and reads as 0.
type registry struct {
	values     map[string]float64
	histograms map[string]map[string]float64
}

// parseRegistry parses the native registry dump served at /metrics.txt:
//
//	counter   jobs.done 200
//	gauge     engine.pending 0
//	histogram lp.solve_ns count=2113 mean=94134.2 p50=45171 …
//	series    slots.busy.site03 samples=19 time_mean=3.2 max=8
func parseRegistry(text string) (registry, error) {
	r := registry{values: map[string]float64{}, histograms: map[string]map[string]float64{}}
	for n, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(f) < 3 {
			return r, fmt.Errorf("metrics.txt line %d: %q: too few fields", n+1, line)
		}
		switch f[0] {
		case "counter", "gauge":
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return r, fmt.Errorf("metrics.txt line %d: %w", n+1, err)
			}
			r.values[f[1]] = v
		case "histogram", "series":
			h := map[string]float64{}
			for _, kv := range f[2:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return r, fmt.Errorf("metrics.txt line %d: field %q is not key=value", n+1, kv)
				}
				x, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return r, fmt.Errorf("metrics.txt line %d: %w", n+1, err)
				}
				h[k] = x
			}
			r.histograms[f[1]] = h
		default:
			return r, fmt.Errorf("metrics.txt line %d: unknown kind %q", n+1, f[0])
		}
	}
	return r, nil
}

func (r registry) get(name string) float64 { return r.values[name] }

// hist returns one summary field of a histogram, 0 when absent.
func (r registry) hist(name, field string) float64 { return r.histograms[name][field] }

// counterLayers derives the per-layer metrics that come from the
// program's own counters. jobs is the number of jobs completed and
// updates the number of cluster updates the benchmark posted.
func counterLayers(r registry, jobs, updates int) []named {
	nj, nu := float64(jobs), float64(updates)
	replaced := r.get("engine.stages_replaced")
	return []named{
		{"engine.loop_stall_max_ms", "ms", r.get("engine.loop_stall_max_ns") / 1e6},
		{"engine.loop_stalls", "count", r.hist("engine.loop_stall_ns", "count")},
		{"engine.place_cache_hit_ratio", "ratio", ratio(r.get("engine.place_cache_hits"),
			r.get("engine.place_cache_hits")+r.get("engine.place_cache_misses"))},
		{"engine.replace_clean_ratio", "ratio", ratio(r.get("engine.replace_skipped_clean"),
			r.get("engine.replace_skipped_clean")+replaced)},
		{"engine.stages_replaced_per_update", "count", ratio(replaced, nu)},
		{"engine.stale_drops", "count", r.get("engine.replace_stale_dropped") + r.get("engine.solves_stale_dropped")},
		{"engine.rejected", "count", r.get("engine.rejected")},
		{"sched.wall_us_per_job", "us", ratio(r.hist("sched.wall_ns", "count")*r.hist("sched.wall_ns", "mean")/1e3, nj)},
		{"sched.instances_per_job", "count", ratio(r.get("sched.instances"), nj)},
		{"lp.solves_per_job", "count", ratio(r.get("lp.solves"), nj)},
		{"lp.solve_us.mean", "us", r.hist("lp.solve_ns", "mean") / 1e3},
		{"lp.fallbacks", "count", r.get("lp.fallbacks")},
		{"lp.warm_ratio", "ratio", ratio(r.get("engine.solves_warm_started"), r.get("lp.solves"))},
	}
}

// federationLayers derives the router's per-layer metrics; they exist
// only when the server runs more than one shard.
func federationLayers(r registry) []named {
	return []named{
		{"federation.spill_ratio", "ratio", ratio(r.get("federation.spilled"), r.get("federation.submitted"))},
		{"federation.rejected", "count", r.get("federation.rejected")},
	}
}

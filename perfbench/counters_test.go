package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
)

const sampleMetricsTxt = `counter   engine.place_cache_misses 2113
counter   engine.replace_skipped_clean 30
counter   engine.solves_warm_started 573
counter   engine.stages_replaced 90
counter   jobs.done 200
counter   lp.solves 2113
counter   sched.instances 547
gauge     engine.loop_stall_max_ns 1.2296988e+07
histogram engine.loop_stall_ns count=104 mean=1.26e+06 p50=411236 p95=5.39e+06 p99=9.4e+06 max=1.2296988e+07
histogram lp.solve_ns count=2113 mean=94134.28 p50=45171 p95=210427 p99=664236 max=9.007927e+06
histogram sched.wall_ns count=547 mean=66647.82 p50=30869 p95=97258 p99=587067 max=4.246151e+06
series    slots.busy.site03 samples=19 time_mean=3.2 max=8
`

func TestParseRegistry(t *testing.T) {
	r, err := parseRegistry(sampleMetricsTxt)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.get("lp.solves"); got != 2113 {
		t.Fatalf("lp.solves = %v", got)
	}
	if got := r.get("engine.rejected"); got != 0 {
		t.Fatalf("a counter never incremented reads %v, want 0", got)
	}
	if got := r.hist("lp.solve_ns", "p99"); got != 664236 {
		t.Fatalf("lp.solve_ns p99 = %v", got)
	}
	if got := r.hist("slots.busy.site03", "time_mean"); got != 3.2 {
		t.Fatalf("series time_mean = %v", got)
	}
	for _, bad := range []string{"counter x", "counter x y", "histogram h count", "meter x 1"} {
		if _, err := parseRegistry(bad); err == nil {
			t.Errorf("parseRegistry(%q) accepted a malformed line", bad)
		}
	}
}

func TestCounterLayers(t *testing.T) {
	r, err := parseRegistry(sampleMetricsTxt)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, m := range counterLayers(r, 200, 3) {
		got[m.name] = m.value
	}
	want := map[string]float64{
		"engine.loop_stall_max_ms":          12.296988,
		"engine.loop_stalls":                104,
		"engine.place_cache_hit_ratio":      0,
		"engine.replace_clean_ratio":        0.25,
		"engine.stages_replaced_per_update": 30,
		"engine.stale_drops":                0,
		"engine.rejected":                   0,
		"sched.wall_us_per_job":             547 * 66647.82 / 1e3 / 200,
		"sched.instances_per_job":           547.0 / 200,
		"lp.solves_per_job":                 2113.0 / 200,
		"lp.solve_us.mean":                  94.13428,
		"lp.fallbacks":                      0,
		"lp.warm_ratio":                     573.0 / 2113,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d metrics, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || math.Abs(g-w) > 1e-9*math.Max(1, math.Abs(w)) {
			t.Errorf("%s = %v, want %v", name, g, w)
		}
	}
}

func TestParsePrometheus(t *testing.T) {
	body := []byte("# TYPE tetrium_jobs_active gauge\ntetrium_jobs_active 12\n" +
		"tetrium_lp_solve_ns{quantile=\"0.5\"} 45171\n")
	s, err := parsePrometheus(body)
	if err != nil {
		t.Fatal(err)
	}
	if s["tetrium_jobs_active"] != 12 || s[`tetrium_lp_solve_ns{quantile="0.5"}`] != 45171 {
		t.Fatalf("samples = %v", s)
	}
	for _, bad := range []string{"", "# only a comment\n", "tetrium_x\n", "tetrium_x abc\n"} {
		if _, err := parsePrometheus([]byte(bad)); err == nil {
			t.Errorf("parsePrometheus(%q) accepted it", bad)
		}
	}
}

// TestResultMetricsMatchBenchmarkJSON pins the result line to the
// metrics BENCHMARK.json declares, with their units.
func TestResultMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	if got, want := sorted(resultEndToEnd), names(bj.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end result metrics %v, BENCHMARK.json has %v", got, want)
	}
	if got, want := sorted(resultPerLayer), names(bj.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer result metrics %v, BENCHMARK.json has %v", got, want)
	}
	var wl []string
	for _, w := range bj.Workloads {
		wl = append(wl, w.Name)
	}
	if !reflect.DeepEqual(wl, []string{"admit", "churn"}) {
		t.Errorf("BENCHMARK.json workloads %v, want the serving workloads admit and churn", wl)
	}
	// Units as the workloads report them.
	units := map[string]string{}
	for _, m := range append(bj.EndToEnd, bj.PerLayer...) {
		units[m.Name] = m.Unit
	}
	r, _ := parseRegistry(sampleMetricsTxt)
	for _, m := range counterLayers(r, 1, 1) {
		if u, ok := units[m.name]; ok && u != m.unit {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.name, m.unit, u)
		}
	}
}

// Command perfbench is tetrium's benchmark: one command that runs a
// workload against programs built from the checkout, checks their
// outputs, and prints every metric by name and unit. The last line of
// its standard output is one JSON object:
//
//	{"correct": true, "attempted": 9120, "failed": 0, "metrics": {"ack_p50_ms": {"value": 1.93, "unit": "ms"}, …}}
//
// With -trace 0 the metrics are the end-to-end ones, measured on the
// real tetrium-serve binary driven over loopback HTTP. With -trace 1 they
// are the per-layer ones: the program's own counters from that same
// untraced run, plus spans recorded around the layer boundaries of a
// second, traced run of the same stack built in-process. See README.md
// for every metric and why each workload exists.
//
// Run it through run.sh, which builds the binaries first:
//
//	bash perfbench/run.sh --workload admit --seed 1 --seconds 45 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

// named is one metric of a report.
type named struct {
	name  string
	unit  string
	value float64
}

// report is the outcome of one benchmark run.
type report struct {
	e2e   []named // end-to-end metrics, printed with -trace 0
	layer []named // per-layer metrics, printed with -trace 1
	// info holds figures printed for people but kept out of the result
	// line: generator lateness, sample counts, tracing overhead, and the
	// workload's own extra metrics.
	info      []named
	attempted int
	failed    int
	problems  []string // failed checks; any makes the run incorrect
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// The metrics of the result line of the workloads BENCHMARK.json lists:
// with -trace 0 its end_to_end metrics, with -trace 1 its per_layer
// ones. Both serving workloads measure every one of them. Those with a
// bound are the ones steady enough to hold it on a shared 2-vCPU VM; the
// wall-clock latencies are printed above the result line but kept out
// of it (see README.md).
var (
	resultEndToEnd = []string{"setup_s", "cpu_ms_per_job", "rss_peak_mb"}
	resultPerLayer = []string{
		"api.client_gap_us.p50", "api.metrics_us.p50", "api.metrics_us.p90",
		"api.post_jobs_us.p50", "api.post_jobs_us.p99", "api.update_us.p50", "api.update_us.p90",
		"engine.admit_us.p50", "engine.admit_us.p99", "engine.first_place_us.p50", "engine.first_place_us.p99",
		"engine.loop_stall_max_ms", "engine.loop_stalls", "engine.place_cache_hit_ratio", "engine.rejected",
		"engine.replace_clean_ratio", "engine.stage_gap_us.p50", "engine.stage_gap_us.p99",
		"engine.stages_replaced_per_update", "engine.stale_drops",
		"journal.bytes_per_job",
		"lp.fallbacks", "lp.solve_us.mean", "lp.solves_per_job", "lp.warm_ratio",
		"obs.heap_kb_per_job", "obs.scrape_bytes",
		"place.calls_per_job", "place.errors", "place.map_us.p50", "place.map_us.p99",
		"place.reduce_us.p50", "place.reduce_us.p99",
		"sched.instances_per_job", "sched.wall_us_per_job",
	}
)

// result builds the final line from the named metrics, or from all of
// them when names is nil. A named metric the run did not measure, or
// measured as NaN or infinite, is a failed check, reported as 0.
func (r *report) result(traced bool, names []string) result {
	list := r.e2e
	if traced {
		list = r.layer
	}
	byName := map[string]named{}
	for _, m := range list {
		byName[m.name] = m
	}
	if names == nil {
		for _, m := range list {
			names = append(names, m.name)
		}
	}
	out := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultMetric{}}
	for _, name := range names {
		m, ok := byName[name]
		v := m.value
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s was not measured", name)
			v = 0
		}
		out.Metrics[name] = resultMetric{Value: v, Unit: m.unit}
	}
	if out.Attempted < 1 {
		r.fail("no operation was attempted")
		out.Attempted = 1
	}
	out.Correct = len(r.problems) == 0
	return out
}

// print writes the human-readable report to standard output, then the
// result line last.
func (r *report) print(workload string, traced bool, names []string) {
	res := r.result(traced, names)
	section := func(title string, ms []named) {
		if len(ms) == 0 {
			return
		}
		fmt.Printf("# %s\n", title)
		for _, m := range ms {
			fmt.Printf("%-36s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	fmt.Printf("# workload %s\n", workload)
	section("end to end", r.e2e)
	section("per layer", r.layer)
	section("info", r.info)
	frac := float64(r.failed) / float64(res.Attempted)
	fmt.Printf("%-36s %14.6g %s\n", "failed_frac", frac, "ratio")
	for _, p := range r.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: admit | churn | sim")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 30, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		binDir   = flag.String("bin", "", "directory holding the tetrium-serve binary built from the checkout")
		workDir  = flag.String("work", "", "directory for journals, trace files and Perfetto output")
		simChild = flag.String("sim-child", "", "run one simulation of this trace file and print its result (used by the sim workload)")
	)
	flag.Parse()

	if *simChild != "" {
		if err := runSimChild(*simChild, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: sim child:", err)
			os.Exit(1)
		}
		return
	}
	if *binDir == "" || *workDir == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -bin, -work, -seconds >= 1 and -trace 0|1; run it through perfbench/run.sh")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, bin: *binDir, work: *workDir}
	var (
		rep   *report
		err   error
		names []string // nil: the workload is not in BENCHMARK.json
	)
	switch *workload {
	case "admit":
		rep, err = runServe(admit, cfg)
		names = resultEndToEnd
	case "churn":
		rep, err = runServe(churn, cfg)
		names = resultEndToEnd
	case "sim":
		rep, err = runSim(cfg)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want admit, churn or sim)\n", *workload)
		os.Exit(2)
	}
	if err != nil {
		// The run could not be carried out at all: no result line.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if names != nil && cfg.traced {
		names = resultPerLayer
	}
	rep.print(*workload, cfg.traced, names)
}

// runConfig is what every workload runner gets from the command line.
type runConfig struct {
	seed    int64
	seconds int
	traced  bool
	bin     string // holds tetrium-serve
	work    string // scratch space inside the checkout
}

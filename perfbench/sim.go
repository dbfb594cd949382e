package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"tetrium"
	"tetrium/internal/cluster"
	"tetrium/internal/obs"
	"tetrium/internal/order"
	"tetrium/internal/sched"
	"tetrium/internal/sim"
	"tetrium/internal/trace"
)

// The sim workload: the paper's 50-site simulation (§6.3) under the
// Tetrium scheduler on a production trace generated from the workload
// seed, as tetrium-sim -cluster sim-50 -trace prod -jobs 50 runs it.
const (
	simPreset = "sim-50"
	simJobs   = 50
	// simSetupReps is how many times each simulation process loads its
	// trace, to report the median load time.
	simSetupReps = 5
)

// At the recorded seed the simulation must reproduce these figures, as
// tetrium-sim prints them (mean response in s, total WAN in GB).
const (
	simRecordedSeed     = 1
	simRecordedResponse = "1672.7"
	simRecordedWAN      = "3464.46"
)

// simOutcome is what one simulation process reports.
type simOutcome struct {
	SetupS        []float64 `json:"setup_s"` // each load of the trace file
	RunS          float64   `json:"run_s"`   // the simulation itself
	Jobs          int       `json:"jobs"`
	Finished      int       `json:"finished"`
	MeanResponseS float64   `json:"mean_response_s"`
	WANBytes      float64   `json:"wan_bytes"`
}

// summarize fills in the job counts and figures of a simulation result.
func summarize(res *tetrium.Result, out *simOutcome) {
	out.Jobs = len(res.Jobs)
	for _, j := range res.Jobs {
		if j.Completion >= j.Arrival && !math.IsInf(j.Completion, 0) && !math.IsNaN(j.Completion) {
			out.Finished++
		}
	}
	out.MeanResponseS = res.MeanResponse()
	out.WANBytes = res.WANBytes
}

// runSimChild is the simulation process: it loads the trace file (the
// cluster is embedded in it) several times, simulates it once through
// the public API, and prints its outcome as JSON.
func runSimChild(path string, seed int64) error {
	var out simOutcome
	var cl *tetrium.Cluster
	var jobs []*tetrium.Job
	for i := 0; i < simSetupReps; i++ {
		t := time.Now()
		c, j, err := trace.ReadFile(path)
		if err != nil {
			return err
		}
		out.SetupS = append(out.SetupS, time.Since(t).Seconds())
		cl, jobs = c, j
	}
	if cl == nil {
		return fmt.Errorf("%s holds no cluster", path)
	}
	t := time.Now()
	res, err := tetrium.Simulate(tetrium.Options{Cluster: cl, Jobs: jobs, Scheduler: tetrium.SchedulerTetrium, Seed: seed})
	if err != nil {
		return err
	}
	out.RunS = time.Since(t).Seconds()
	summarize(res, &out)
	return json.NewEncoder(os.Stdout).Encode(out)
}

// runSimProcess runs one simulation process and returns its outcome with
// the CPU time and peak RSS the kernel accounted to it.
func runSimProcess(path string, seed int64) (simOutcome, time.Duration, float64, error) {
	var out simOutcome
	self, err := os.Executable()
	if err != nil {
		return out, 0, 0, err
	}
	cmd := exec.Command(self, "-sim-child", path, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.Output()
	if err != nil {
		return out, 0, 0, fmt.Errorf("simulation process: %w", err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(stdout), &out); err != nil {
		return out, 0, 0, fmt.Errorf("simulation process output: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return out, 0, 0, fmt.Errorf("no rusage for the simulation process")
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return out, cpu, float64(ru.Maxrss) / 1024, nil
}

// runSim runs the sim workload: simulation processes back to back on
// the same trace until the window is over (at least one), and with
// cfg.traced one more simulation in process with spans around the
// placer.
func runSim(cfg runConfig) (*report, error) {
	cl, err := cluster.Preset(simPreset, cfg.seed)
	if err != nil {
		return nil, err
	}
	jobs := tetrium.GenerateTrace(tetrium.TraceProduction, cl, simJobs, cfg.seed)
	dir := filepath.Join(cfg.work, fmt.Sprintf("sim-seed%d-pid%d", cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "trace.json")
	if err := trace.WriteFile(path, cl, jobs, "perfbench sim workload"); err != nil {
		return nil, err
	}

	rep := &report{}
	var (
		outs   []simOutcome
		setups []float64
		cpu    time.Duration
		rss    float64
		runS   float64
	)
	window := time.Duration(cfg.seconds) * time.Second
	start := time.Now()
	for len(outs) == 0 || time.Since(start) < window {
		out, c, r, err := runSimProcess(path, cfg.seed)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
		setups = append(setups, out.SetupS...)
		cpu += c
		rss = math.Max(rss, r)
		runS += out.RunS
	}

	done := 0
	for i, o := range outs {
		rep.attempted += simJobs
		done += o.Finished
		if o.Jobs != simJobs || o.Finished != simJobs {
			rep.fail("simulation %d finished %d of %d jobs (reported %d)", i, o.Finished, simJobs, o.Jobs)
			rep.failed += simJobs - o.Finished
		}
		if o.MeanResponseS != outs[0].MeanResponseS || o.WANBytes != outs[0].WANBytes {
			rep.fail("simulation %d differs from the first on the same trace: %v s / %v B vs %v s / %v B",
				i, o.MeanResponseS, o.WANBytes, outs[0].MeanResponseS, outs[0].WANBytes)
			rep.failed++
		}
	}
	resp := fmt.Sprintf("%.1f", outs[0].MeanResponseS)
	wan := fmt.Sprintf("%.2f", outs[0].WANBytes/tetrium.GB)
	if cfg.seed == simRecordedSeed && (resp != simRecordedResponse || wan != simRecordedWAN) {
		rep.fail("seed %d: mean response %s s and WAN %s GB, recorded %s s and %s GB",
			cfg.seed, resp, wan, simRecordedResponse, simRecordedWAN)
		rep.failed++
	}

	rep.e2e = []named{
		{"setup_s", "s", median(setups)},
		{"jobs_s", "1/s", float64(done) / runS},
		{"cpu_ms_per_job", "ms", ratio(ms(cpu), float64(done))},
		{"rss_peak_mb", "MB", rss},
	}
	rep.info = append(rep.info,
		named{"sim.processes", "count", float64(len(outs))},
		named{"sim.mean_response_s", "s", outs[0].MeanResponseS},
		named{"sim.wan_gb", "GB", outs[0].WANBytes / tetrium.GB},
	)
	if cfg.traced {
		layers, err := simTraced(cfg, path, outs[0], runS/float64(len(outs)), rep)
		if err != nil {
			return nil, err
		}
		rep.layer = layers
	}
	return rep, nil
}

// simTraced simulates the trace once more in process, on the simulator
// configuration Simulate builds but with the placer wrapped in spans and
// a recorder for the program's own counters.
func simTraced(cfg runConfig, path string, want simOutcome, untracedRunS float64, rep *report) ([]named, error) {
	cl, jobs, err := trace.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t := newTracer(nil)
	rec := obs.NewRecorder()
	start := time.Now()
	res, err := sim.Run(sim.Config{
		Cluster:     cl,
		Jobs:        jobs,
		Placer:      tracedPlacer{Placer: tetriumPlacer(cl.N()), t: t},
		Policy:      sched.SRPT,
		MapOrder:    order.RemoteFirstSpread,
		ReduceOrder: order.LongestFirst,
		Rho:         1,
		Eps:         1,
		Seed:        cfg.seed,
		Observer:    rec,
	})
	end := time.Now()
	if err != nil {
		return nil, err
	}
	var got simOutcome
	summarize(res, &got)
	rep.attempted += simJobs
	if got.MeanResponseS != want.MeanResponseS || got.WANBytes != want.WANBytes {
		rep.fail("traced simulation differs from the untraced one: %v s / %v B vs %v s / %v B",
			got.MeanResponseS, got.WANBytes, want.MeanResponseS, want.WANBytes)
		rep.failed++
	}
	t.add("sim", "run", -1, start, end)

	var text bytes.Buffer
	if _, err := rec.Registry().WriteText(&text); err != nil {
		return nil, err
	}
	reg, err := parseRegistry(text.String())
	if err != nil {
		return nil, err
	}

	runMs := ms(end.Sub(start))
	placeMs := 0.0
	for _, s := range t.spans {
		if s.layer == "place" {
			placeMs += ms(s.end.Sub(s.start))
		}
	}
	nj := float64(got.Finished)
	mapD, redD := t.durations("place", "map"), t.durations("place", "reduce")
	layers := []named{
		{"sim.run_ms", "ms", runMs},
		{"sim.place_ms", "ms", placeMs},
		{"sim.self_ms", "ms", runMs - placeMs},
		{"place.map_us.p50", "us", median(mapD)},
		{"place.map_us.p99", "us", tail(mapD, 99)},
		{"place.reduce_us.p50", "us", median(redD)},
		{"place.reduce_us.p99", "us", tail(redD, 99)},
		{"place.calls_per_job", "count", ratio(float64(t.placeCalls), nj)},
		{"place.errors", "count", float64(t.placeErrors)},
		{"lp.solves_per_job", "count", ratio(reg.get("lp.solves"), nj)},
		{"lp.solve_us.mean", "us", reg.hist("lp.solve_ns", "mean") / 1e3},
		{"lp.fallbacks", "count", reg.get("lp.fallbacks")},
		{"sched.wall_us_per_job", "us", ratio(reg.hist("sched.wall_ns", "count")*reg.hist("sched.wall_ns", "mean")/1e3, nj)},
		{"sched.instances_per_job", "count", ratio(reg.get("sched.instances"), nj)},
	}
	sortNamed(layers)
	rep.info = append(rep.info, named{"trace_overhead.run_ms", "ms", runMs - untracedRunS*1000})

	out := filepath.Join(cfg.work, fmt.Sprintf("trace-sim-seed%d.json", cfg.seed))
	if err := t.writeChrome(out); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("# traced run: %d spans written to %s\n", len(t.spans), out)
	return layers, nil
}

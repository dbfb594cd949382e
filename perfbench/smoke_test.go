package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
)

// TestMain lets this test binary stand in for the benchmark binary as
// the sim workload's simulation process.
func TestMain(m *testing.M) {
	if len(os.Args) == 5 && os.Args[1] == "-sim-child" && os.Args[3] == "-seed" {
		seed, err := strconv.ParseInt(os.Args[4], 10, 64)
		if err == nil {
			err = runSimChild(os.Args[2], seed)
		}
		if err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// buildServe builds tetrium-serve from the enclosing checkout.
func buildServe(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", filepath.Join(dir, "tetrium-serve"), "./cmd/tetrium-serve")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build tetrium-serve: %v\n%s", err, out)
	}
	return dir
}

// benchmarkUnits reads the unit of every metric BENCHMARK.json lists.
func benchmarkUnits(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range append(bj.EndToEnd, bj.PerLayer...) {
		units[m.Name] = m.Unit
	}
	return units
}

// checkResult checks a result line: correct, nothing failed, and every
// metric in the unit BENCHMARK.json gives it.
func checkResult(t *testing.T, rep *report, traced bool, names []string, units map[string]string) {
	t.Helper()
	res := rep.result(traced, names)
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("result correct=%v failed=%d, problems %v", res.Correct, res.Failed, rep.problems)
	}
	if len(res.Metrics) != len(names) {
		t.Fatalf("result has %d metrics, want %d", len(res.Metrics), len(names))
	}
	for name, m := range res.Metrics {
		if want, ok := units[name]; ok && m.Unit != want {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", name, m.Unit, want)
		}
	}
}

// TestSmokeServe runs both serving workloads for two seconds each, with
// the traced run, and checks their result lines.
func TestSmokeServe(t *testing.T) {
	if testing.Short() {
		t.Skip("builds tetrium-serve and serves for several seconds")
	}
	bin := buildServe(t)
	units := benchmarkUnits(t)
	for _, wl := range []serveWorkload{admit, churn} {
		t.Run(wl.name, func(t *testing.T) {
			work := t.TempDir()
			rep, err := runServe(wl, runConfig{seed: 5, seconds: 2, traced: true, bin: bin, work: work})
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, rep, false, resultEndToEnd, units)
			checkResult(t, rep, true, resultPerLayer, units)
			var chrome struct {
				TraceEvents []traceEvent `json:"traceEvents"`
			}
			b, err := os.ReadFile(filepath.Join(work, "trace-"+wl.name+"-seed5.json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
				t.Fatalf("Chrome trace: %d events, %v", len(chrome.TraceEvents), err)
			}
		})
	}
}

// TestSmokeSim runs one simulation at the recorded seed, whose figures
// the run checks, and the traced simulation beside it.
func TestSmokeSim(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 50 jobs on 50 sites twice")
	}
	rep, err := runSim(runConfig{seed: simRecordedSeed, seconds: 1, traced: true, work: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, rep, false, []string{"setup_s", "cpu_ms_per_job", "rss_peak_mb", "jobs_s"}, benchmarkUnits(t))
	checkResult(t, rep, true, []string{"sim.run_ms", "sim.place_ms", "sim.self_ms", "lp.solves_per_job"}, benchmarkUnits(t))
}

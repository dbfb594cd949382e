package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"tetrium/internal/engine/api"
	"tetrium/internal/journal"
	"tetrium/internal/workload"
)

// TestMain doubles as the server process for the subprocess tests: when
// re-exec'd with the helper env var set, the test binary runs the real
// main() so SIGKILL and SIGTERM hit an actual tetrium-serve.
func TestMain(m *testing.M) {
	if os.Getenv("TETRIUM_SERVE_HELPER") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// helperServer spawns this test binary as a tetrium-serve process with
// the given extra flags, waits for the listen banner, and returns the
// base URL plus the running command and its captured output.
func helperServer(t *testing.T, extra ...string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-cluster", "paper"}, extra...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TETRIUM_SERVE_HELPER=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("StdoutPipe: %v", err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatalf("start helper: %v", err)
	}

	var buf bytes.Buffer
	banner := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			buf.WriteString(line + "\n")
			if strings.Contains(line, "listening on ") {
				select {
				case banner <- line:
				default:
				}
			}
		}
	}()
	select {
	case line := <-banner:
		f := strings.Fields(line) // "tetrium-serve: listening on ADDR (..."
		addr := ""
		for i, w := range f {
			if w == "on" && i+1 < len(f) {
				addr = f[i+1]
			}
		}
		if addr == "" {
			cmd.Process.Kill()
			t.Fatalf("cannot parse listen banner %q", line)
		}
		return cmd, "http://" + addr, &buf
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("server never printed its listen banner; output:\n%s", buf.String())
		return nil, "", nil
	}
}

func testJobBody(t *testing.T, name string) []byte {
	t.Helper()
	st := &workload.Stage{Kind: workload.MapStage, OutputRatio: 0.5, EstCompute: 2}
	for i := 0; i < 4; i++ {
		st.Tasks = append(st.Tasks, workload.TaskSpec{Src: i % 3, Input: 64e6, Compute: 2})
	}
	body, err := json.Marshal(api.FromWorkload(&workload.Job{Name: name, Stages: []*workload.Stage{st}}))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return body
}

func postJobHTTP(t *testing.T, base string, body []byte) (*http.Response, api.JobStatus) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	var st api.JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	return resp, st
}

// TestCrashRestart is the ISSUE acceptance test: SIGKILL the server with
// jobs in flight, restart it against the same journal, and every
// accepted job completes exactly once.
func TestCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	jpath := filepath.Join(t.TempDir(), "serve.journal")

	// Server 1: stages run for minutes, so every job is mid-flight when
	// the KILL lands.
	cmd1, base1, _ := helperServer(t, "-journal", jpath, "-time-scale", "5")
	const n = 25
	ids := make(map[int]bool)
	body := testJobBody(t, "crash-survivor")
	for i := 0; i < n; i++ {
		resp, st := postJobHTTP(t, base1, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids[st.ID] = true
	}
	if len(ids) != n {
		t.Fatalf("accepted %d distinct IDs, want %d", len(ids), n)
	}
	if err := cmd1.Process.Kill(); err != nil { // SIGKILL: no cleanup, no snapshot
		t.Fatalf("kill: %v", err)
	}
	cmd1.Wait()

	// Server 2: replays the journal; instant completion drains the
	// recovered backlog immediately.
	cmd2, base2, out2 := helperServer(t, "-journal", jpath, "-time-scale", "0")
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM)
		cmd2.Wait()
	}()

	// Readiness flips once replay is done.
	readyDeadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base2 + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(readyDeadline) {
			t.Fatalf("server never became ready; output:\n%s", out2.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Every accepted job reappears and completes — exactly once.
	doneDeadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base2 + "/v1/jobs")
		if err != nil {
			t.Fatalf("GET /v1/jobs: %v", err)
		}
		var jobs []api.JobStatus
		derr := json.NewDecoder(resp.Body).Decode(&jobs)
		resp.Body.Close()
		if derr != nil {
			t.Fatalf("decode: %v", derr)
		}
		if len(jobs) != n {
			t.Fatalf("restarted server lists %d jobs, want %d", len(jobs), n)
		}
		seen := make(map[int]int)
		done := 0
		for _, js := range jobs {
			seen[js.ID]++
			if !ids[js.ID] {
				t.Fatalf("job ID %d was never accepted by server 1", js.ID)
			}
			if js.State == "done" {
				done++
			}
		}
		for id, c := range seen {
			if c != 1 {
				t.Fatalf("job %d appears %d times", id, c)
			}
		}
		if done == n {
			break
		}
		if time.Now().After(doneDeadline) {
			t.Fatalf("only %d/%d jobs done after restart", done, n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCrashRestartCorruptJournal extends the SIGKILL story with disk
// damage: after the kill, one journal record is flipped (a torn or
// bit-rotted write) before the restart. Replay must quarantine the bad
// record to the .corrupt sidecar and keep going — the server comes up,
// and at most the one damaged record's job is lost; everything else
// completes exactly once.
func TestCrashRestartCorruptJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	jpath := filepath.Join(t.TempDir(), "serve.journal")

	cmd1, base1, _ := helperServer(t, "-journal", jpath, "-time-scale", "5")
	const n = 10
	ids := make(map[int]bool)
	body := testJobBody(t, "corrupt-survivor")
	for i := 0; i < n; i++ {
		resp, st := postJobHTTP(t, base1, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids[st.ID] = true
	}
	if err := cmd1.Process.Kill(); err != nil { // SIGKILL: no cleanup, no snapshot
		t.Fatalf("kill: %v", err)
	}
	cmd1.Wait()

	// Record 0 is the generation stamp; record 2 is mid-file — an admit
	// or a placement, either of which replay must survive.
	if err := journal.CorruptRecord(jpath, 2); err != nil {
		t.Fatalf("CorruptRecord: %v", err)
	}

	cmd2, base2, out2 := helperServer(t, "-journal", jpath, "-time-scale", "0")
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM)
		cmd2.Wait()
	}()

	// Replay continues past the quarantined record: the server readies.
	readyDeadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base2 + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(readyDeadline) {
			t.Fatalf("server never became ready over damaged journal; output:\n%s", out2.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The damaged line is preserved for forensics, not silently dropped.
	side, err := os.ReadFile(jpath + ".corrupt")
	if err != nil {
		t.Fatalf("quarantine sidecar: %v", err)
	}
	if len(side) == 0 {
		t.Fatal("quarantine sidecar is empty")
	}

	// If the corrupted record was an admit, exactly that job is gone;
	// a corrupted placement loses nothing. Either way no unknown IDs,
	// no duplicates, and every survivor completes.
	doneDeadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base2 + "/v1/jobs")
		if err != nil {
			t.Fatalf("GET /v1/jobs: %v", err)
		}
		var jobs []api.JobStatus
		derr := json.NewDecoder(resp.Body).Decode(&jobs)
		resp.Body.Close()
		if derr != nil {
			t.Fatalf("decode: %v", derr)
		}
		if len(jobs) < n-1 || len(jobs) > n {
			t.Fatalf("restarted server lists %d jobs, want %d or %d", len(jobs), n-1, n)
		}
		seen := make(map[int]int)
		done := 0
		for _, js := range jobs {
			seen[js.ID]++
			if !ids[js.ID] {
				t.Fatalf("job ID %d was never accepted before the crash", js.ID)
			}
			if js.State == "done" {
				done++
			}
		}
		for id, c := range seen {
			if c != 1 {
				t.Fatalf("job %d appears %d times", id, c)
			}
		}
		if done == len(jobs) {
			break
		}
		if time.Now().After(doneDeadline) {
			t.Fatalf("only %d/%d jobs done after corrupt replay", done, len(jobs))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSigtermDrain: jobs running when the signal arrives finish; new
// submissions are refused with 503; the process exits cleanly after
// printing the drain banner. The journal proves the in-flight jobs
// really completed.
func TestSigtermDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	jpath := filepath.Join(t.TempDir(), "serve.journal")
	cmd, base, out := helperServer(t, "-journal", jpath, "-time-scale", "0.05", "-drain-timeout", "60s")

	const n = 3
	body := testJobBody(t, "drainee")
	for i := 0; i < n; i++ {
		if resp, _ := postJobHTTP(t, base, body); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}

	// While draining, the server still answers but refuses new work. A
	// probe can race the signal and land before admission closes — those
	// get admitted for real, so count them toward the drain total.
	refuseDeadline := time.Now().Add(15 * time.Second)
	refused := false
	admitted := n
	for time.Now().Before(refuseDeadline) {
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			break // listener already shut down — drain finished first
		}
		code := resp.StatusCode
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if code == http.StatusAccepted {
			admitted++
		}
		if code == http.StatusServiceUnavailable {
			refused = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	werr := cmd.Wait()
	if werr != nil {
		t.Fatalf("server exited with error: %v\noutput:\n%s", werr, out.String())
	}
	output := out.String()
	if !strings.Contains(output, "draining") || !strings.Contains(output, "stopped") {
		t.Errorf("missing drain/stop banners in output:\n%s", output)
	}
	if !refused {
		// The drain may have finished before our first probe landed; the
		// journal check below still proves the drain path ran.
		t.Logf("note: no 503 observed (drain completed before probe)")
	}

	// Every admitted job must have completed before exit.
	jnl, st, err := journal.Open(jpath, 0)
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	defer jnl.Close()
	if len(st.Live) != 0 {
		t.Errorf("%d jobs still live in journal after drain — running jobs did not finish", len(st.Live))
	}
	if len(st.Done) != admitted {
		t.Errorf("journal has %d done jobs, want %d", len(st.Done), admitted)
	}
}

// TestFaultFlagValidation: a flag the server cannot honor must fail
// fast, not start a server that silently ignores it — a bad -fault-spec,
// and the federation-only flags on a single-engine (-shards 1) server.
func TestFaultFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	cases := []struct {
		name     string
		args     []string
		wantCode int // 0: any non-zero exit
		wantOut  string
	}{
		{"bad-fault-spec", []string{"-fault-spec", "crash@nonsense"}, 0, "fault"},
		{"supervise", []string{"-supervise"}, 2, "-supervise"},
		{"supervise-shards-1", []string{"-shards", "1", "-supervise"}, 2, "-supervise"},
		{"restart-backoff", []string{"-restart-backoff", "1s"}, 2, "-restart-backoff"},
		{"shard-by", []string{"-shard-by", "site"}, 2, "-shard-by"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			args := append([]string{"-addr", "127.0.0.1:0", "-cluster", "paper"}, tc.args...)
			cmd := exec.CommandContext(ctx, os.Args[0], args...)
			cmd.Env = append(os.Environ(), "TETRIUM_SERVE_HELPER=1")
			out, err := cmd.CombinedOutput()
			var exitErr *exec.ExitError
			if !errors.As(err, &exitErr) {
				t.Fatalf("server did not exit with an error (err %v); output:\n%s", err, out)
			}
			if tc.wantCode != 0 && exitErr.ExitCode() != tc.wantCode {
				t.Errorf("exit code %d, want %d; output:\n%s", exitErr.ExitCode(), tc.wantCode, out)
			}
			if !strings.Contains(string(out), tc.wantOut) {
				t.Errorf("error output does not mention %q:\n%s", tc.wantOut, out)
			}
		})
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"tetrium/internal/engine/api"
	"tetrium/internal/federation"
)

// TestFederationCrashRestart is the sharded analogue of
// TestCrashRestart: a 2-shard journaled server is SIGKILLed with jobs
// in flight on both shards, then restarted against the same journal
// prefix. Every accepted job must reappear under its federation ID and
// complete exactly once — the per-shard journals recover independently.
func TestFederationCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	jpath := filepath.Join(t.TempDir(), "serve.journal")

	cmd1, base1, _ := helperServer(t, "-shards", "2", "-journal", jpath, "-time-scale", "5")
	const n = 20
	ids := make(map[int]bool)
	shardsHit := make(map[int]bool)
	for i := 0; i < n; i++ {
		resp, st := postJobHTTP(t, base1, testJobBody(t, fmt.Sprintf("fed-survivor-%d", i)))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids[st.ID] = true
		shardsHit[st.ID%2] = true // gid = local*N + shard
	}
	if len(ids) != n {
		t.Fatalf("accepted %d distinct IDs, want %d", len(ids), n)
	}
	if len(shardsHit) != 2 {
		t.Fatalf("all %d jobs routed to one shard; hash spread broken", n)
	}
	if err := cmd1.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	cmd1.Wait()

	// Both shard journals must exist on disk.
	for i := 0; i < 2; i++ {
		if _, err := os.Stat(fmt.Sprintf("%s.shard%d", jpath, i)); err != nil {
			t.Fatalf("shard %d journal missing after kill: %v", i, err)
		}
	}

	cmd2, base2, out2 := helperServer(t, "-shards", "2", "-journal", jpath, "-time-scale", "0")
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM)
		cmd2.Wait()
	}()

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

	doneDeadline := time.Now().Add(60 * time.Second)
	for {
		jobs := fetchJobs(t, base2)
		if len(jobs) != n {
			t.Fatalf("restarted federation lists %d jobs, want %d", len(jobs), n)
		}
		seen := make(map[int]int)
		done := 0
		for _, js := range jobs {
			seen[js.ID]++
			if !ids[js.ID] {
				t.Fatalf("job ID %d was never accepted before the kill", js.ID)
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

	// The router-level endpoints are live on the restarted fleet.
	var fs federation.FederationStatus
	fedResp, err := http.Get(base2 + "/v1/federation")
	if err != nil {
		t.Fatalf("GET /v1/federation: %v", err)
	}
	derr := json.NewDecoder(fedResp.Body).Decode(&fs)
	fedResp.Body.Close()
	if derr != nil {
		t.Fatalf("decode /v1/federation: %v", derr)
	}
	if fs.Shards != 2 || len(fs.Members) != 2 || !fs.Journal {
		t.Fatalf("federation status = %+v, want 2 journaled shards", fs)
	}
}

func fetchJobs(t *testing.T, base string) []api.JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET /v1/jobs: %v", err)
	}
	var jobs []api.JobStatus
	derr := json.NewDecoder(resp.Body).Decode(&jobs)
	resp.Body.Close()
	if derr != nil {
		t.Fatalf("decode /v1/jobs: %v", derr)
	}
	return jobs
}

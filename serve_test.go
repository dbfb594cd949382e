package tetrium

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tetrium/internal/engine"
	"tetrium/internal/fleet"
)

// TestFederationAnalyticsSurvivesRestart: at one shard the fleet store
// belongs to the federation, not the shard engine. Restarting the shard
// (twice: a second close of the store would panic) leaves
// /v1/analytics answering and the snapshot ticker running, and Close
// tolerates being called again.
func TestFederationAnalyticsSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "snap.json")
	c := smallCluster()
	fed, err := NewFederation(EngineOptions{
		Cluster:                c,
		TimeScale:              -1,
		JournalPath:            filepath.Join(dir, "run.journal"),
		Analytics:              true,
		AnalyticsSnapshotPath:  snap,
		AnalyticsSnapshotEvery: 5 * time.Millisecond,
	}, 1, "hash")
	if err != nil {
		t.Fatalf("NewFederation: %v", err)
	}
	srv := httptest.NewServer(FederationHandler(fed))
	defer srv.Close()

	jobs := GenerateTrace(TraceBigData, c, 4, 1)
	for _, j := range jobs {
		if _, err := fed.Submit(j); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		sts, err := fed.Jobs()
		if err != nil {
			t.Fatalf("Jobs: %v", err)
		}
		done := 0
		for _, st := range sts {
			if st.Phase == engine.JobDone {
				done++
			}
		}
		if done == len(jobs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d/%d jobs done", done, len(jobs))
		}
		time.Sleep(time.Millisecond)
	}

	for i := 0; i < 2; i++ {
		if err := fed.RestartShard(0); err != nil {
			t.Fatalf("RestartShard #%d: %v", i+1, err)
		}
	}

	resp, err := http.Get(srv.URL + "/v1/analytics/resource-hogs")
	if err != nil {
		t.Fatalf("GET resource-hogs: %v", err)
	}
	var hogs fleet.ResourceHogs
	derr := json.NewDecoder(resp.Body).Decode(&hogs)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || derr != nil {
		t.Fatalf("resource-hogs after restarts: %s (decode %v)", resp.Status, derr)
	}
	if hogs.Totals.Jobs != len(jobs) {
		t.Errorf("analytics totals after restarts: %+v, want %d jobs", hogs.Totals, len(jobs))
	}

	// The snapshot ticker still runs: a deleted snapshot comes back.
	os.Remove(snap)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := os.Stat(snap); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("analytics snapshots stopped after a shard restart")
		}
	}

	fed.Close()
	fed.Close()
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"tetrium"
	"tetrium/internal/engine/api"
	"tetrium/internal/federation"
	"tetrium/internal/workload"
)

// runFederationSmoke is the CI end-to-end check at any shard count:
// serve the router on an ephemeral port, submit jobs over the wire,
// kill and restore one shard mid-flight (journaled deployments only),
// fire a §4.2 cluster update, then prove every admitted job reaches
// done exactly once and the aggregated endpoints stay coherent
// throughout. Any deviation is an error (non-zero exit).
func runFederationSmoke(fed *tetrium.Federation, journaled bool) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: tetrium.FederationHandler(fed)}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 10 * time.Second}
	fmt.Printf("smoke: serving on %s (%d shards)\n", base, fed.NumShards())

	if err := federationSmokeSteps(client, base, fed, journaled); err != nil {
		srv.Close()
		<-done
		return err
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-done; err != nil && err != http.ErrServerClosed {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

func federationSmokeSteps(client *http.Client, base string, fed *tetrium.Federation, journaled bool) error {
	if body, err := smokeGet(client, base+"/healthz"); err != nil {
		return fmt.Errorf("healthz: %w", err)
	} else if !strings.Contains(body, "ok") {
		return fmt.Errorf("healthz replied %q", body)
	}
	if _, err := smokeGet(client, base+"/readyz"); err != nil {
		return fmt.Errorf("readyz: %w", err)
	}

	cl, err := fetchCluster(client, base)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}

	// Enough jobs that both shards hold work when one dies.
	jobs := workload.Generate(workload.BigData(cl.N(), 10, 42))
	var ids []int
	for _, j := range jobs {
		id, err := submitJob(client, base, j)
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		ids = append(ids, id)
	}
	fmt.Printf("smoke: submitted %d jobs\n", len(ids))

	// With several shards the router must have spread the IDs over more
	// than one.
	if fed.NumShards() > 1 {
		seen := map[int]bool{}
		for _, id := range ids {
			seen[id%fed.NumShards()] = true
		}
		if len(seen) < 2 {
			return fmt.Errorf("all %d jobs landed on one shard; shard map not spreading", len(ids))
		}
	}

	// Kill shard 0 while jobs are in flight; its journal restores the
	// admitted jobs and they re-run under their original IDs.
	if journaled {
		if err := fed.RestartShard(0); err != nil {
			return fmt.Errorf("restart shard 0: %w", err)
		}
		fmt.Println("smoke: shard 0 killed and restored from journal")
	}

	// §4.2 update fans out to every shard slice.
	if err := postDrop(client, base, "0:0.3"); err != nil {
		return fmt.Errorf("cluster update: %w", err)
	}

	// Every admitted job must reach done — none lost to the shard kill.
	deadline := time.Now().Add(60 * time.Second)
	for _, id := range ids {
		for {
			body, err := smokeGet(client, fmt.Sprintf("%s/v1/jobs/%d", base, id))
			if err != nil {
				return fmt.Errorf("poll job %d: %w", id, err)
			}
			var st api.JobStatus
			if err := json.Unmarshal([]byte(body), &st); err != nil {
				return fmt.Errorf("poll job %d: %w", id, err)
			}
			if st.State == "done" {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("job %d stuck in state %q", id, st.State)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	fmt.Println("smoke: all jobs completed")

	// Aggregated metrics must count every completion exactly once, in
	// both formats.
	txt, err := smokeGet(client, base+"/metrics.txt")
	if err != nil {
		return fmt.Errorf("metrics.txt: %w", err)
	}
	wantDone := fmt.Sprintf("jobs.done %d", len(ids))
	if !strings.Contains(txt, wantDone) {
		return fmt.Errorf("/metrics.txt missing %q (lost or double-counted completions):\n%s", wantDone, txt)
	}
	prom, err := smokeGet(client, base+"/metrics")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	for _, want := range []string{fmt.Sprintf("tetrium_jobs_done %d", len(ids)), "tetrium_federation_shards"} {
		if !strings.Contains(prom, want) {
			return fmt.Errorf("/metrics missing %q:\n%s", want, prom)
		}
	}

	// The event stream shows the drop once per shard slice, and its
	// re-placements.
	restamps, drops, err := countReplacements(client, base)
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	if drops != fed.NumShards() {
		return fmt.Errorf("events recorded %d drops, want one per shard (%d)", drops, fed.NumShards())
	}
	fmt.Printf("smoke: events show %d drop(s), %d re-placements\n", drops, restamps)

	// Per-shard state endpoint.
	fedBody, err := smokeGet(client, base+"/v1/federation")
	if err != nil {
		return fmt.Errorf("federation status: %w", err)
	}
	var fs federation.FederationStatus
	if err := json.Unmarshal([]byte(fedBody), &fs); err != nil {
		return fmt.Errorf("federation status: %w", err)
	}
	if fs.Shards != fed.NumShards() || len(fs.Members) != fed.NumShards() {
		return fmt.Errorf("federation status reports %d shards / %d members, want %d",
			fs.Shards, len(fs.Members), fed.NumShards())
	}

	// Merged event stream with a composite cursor round-trip.
	resp, err := client.Get(base + "/debug/events")
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	next := resp.Header.Get("Tetrium-Events-Next")
	resp.Body.Close()
	if strings.Count(next, ":") != fed.NumShards()-1 {
		return fmt.Errorf("events cursor %q is not a %d-field vector", next, fed.NumShards())
	}
	if _, err := smokeGet(client, base+"/debug/events?since="+next); err != nil {
		return fmt.Errorf("events since %q: %w", next, err)
	}

	// Graceful drain: no further admissions.
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fed.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if _, err := submitJob(client, base, jobs[0]); err == nil {
		return fmt.Errorf("submission accepted while draining")
	}
	return nil
}

func smokeGet(client *http.Client, url string) (string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return string(body), fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(body), nil
}

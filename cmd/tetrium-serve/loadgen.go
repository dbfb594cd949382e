package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"tetrium"
	"tetrium/internal/engine/api"
	"tetrium/internal/metrics"
)

// Load-generator flags, registered alongside the server's.
var (
	lgTarget  *string
	lgJobs    *int
	lgTrace   *string
	lgRate    *float64
	lgWorkers *int
	lgDrop    *string
	lgWait    *time.Duration
	lgClients *int
	lgStages  *string
)

func addLoadgenFlags() {
	lgTarget = flag.String("target", "http://127.0.0.1:8080", "loadgen: server base URL")
	lgJobs = flag.Int("jobs", 100, "loadgen: jobs to submit (per stage in staged mode)")
	lgTrace = flag.String("trace", "bigdata", "loadgen: workload kind tpcds|bigdata|prod")
	lgRate = flag.Float64("rate", 600, "loadgen: submission rate, jobs/minute")
	lgWorkers = flag.Int("workers", 8, "loadgen: concurrent submitters")
	lgDrop = flag.String("drop", "0:0.4", "loadgen: site:frac cluster update fired mid-run (empty: none)")
	lgWait = flag.Duration("wait", 60*time.Second, "loadgen: per-job placement poll bound")
	lgClients = flag.Int("clients", 0, "loadgen: staged mode with N concurrent tenant clients (single stage)")
	lgStages = flag.String("stages", "", "loadgen: staged mode, client counts per stage, e.g. \"1,3,10\"")
}

// runLoadgen replays a synthetic arrival process against a running
// server and reports the serving-path numbers the ISSUE asks for:
// submission throughput, p50/p95/p99 submit-to-placement latency, and
// whether the mid-run §4.2 update produced visible re-placements.
//
// Cancelling ctx (Ctrl-C) stops submitting and polling early and still
// prints the report over whatever jobs completed by then.
func runLoadgen(ctx context.Context, seed int64) error {
	if *lgStages != "" || *lgClients > 0 {
		return runStagedLoadgen(ctx, seed)
	}
	client := &http.Client{Timeout: 30 * time.Second}
	base := strings.TrimRight(*lgTarget, "/")

	// The cluster shape comes from the server, so generated jobs
	// reference only sites that exist there.
	cl, err := fetchCluster(client, base)
	if err != nil {
		return fmt.Errorf("fetch cluster: %w", err)
	}

	var kind tetrium.TraceKind
	switch *lgTrace {
	case "tpcds":
		kind = tetrium.TraceTPCDS
	case "bigdata":
		kind = tetrium.TraceBigData
	case "prod":
		kind = tetrium.TraceProduction
	default:
		return fmt.Errorf("unknown trace %q", *lgTrace)
	}
	jobs := tetrium.GenerateTrace(kind, cl, *lgJobs, seed)

	fmt.Printf("loadgen: %d sites, %d jobs (%s), target %.0f jobs/min, %d workers\n",
		cl.N(), len(jobs), *lgTrace, *lgRate, *lgWorkers)

	interval := time.Duration(0)
	if *lgRate > 0 {
		interval = time.Duration(60 / *lgRate * float64(time.Second))
	}

	type submitted struct {
		id      int
		sendErr error
	}
	work := make(chan *tetrium.Job)
	results := make(chan submitted, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < *lgWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				id, err := submitJob(client, base, j)
				results <- submitted{id: id, sendErr: err}
			}
		}()
	}

	start := time.Now()
	dropAfter := len(jobs) / 2
	interrupted := false
submitLoop:
	for i, j := range jobs {
		if *lgDrop != "" && i == dropAfter {
			if err := postDrop(client, base, *lgDrop); err != nil {
				return fmt.Errorf("mid-run cluster update: %w", err)
			}
			fmt.Printf("loadgen: cluster update %q fired after %d submissions\n", *lgDrop, i)
		}
		// Pace submissions to the requested rate.
		if target := time.Duration(i) * interval; interval > 0 {
			if ahead := target - time.Since(start); ahead > 0 {
				select {
				case <-time.After(ahead):
				case <-ctx.Done():
					interrupted = true
					break submitLoop
				}
			}
		}
		select {
		case work <- j:
		case <-ctx.Done():
			interrupted = true
			break submitLoop
		}
	}
	close(work)
	wg.Wait()
	submitWall := time.Since(start)
	close(results)

	var ids []int
	for r := range results {
		if r.sendErr != nil {
			return fmt.Errorf("submit: %w", r.sendErr)
		}
		ids = append(ids, r.id)
	}

	// Collect server-side submit→placement latency per job. After an
	// interrupt, jobs the server already placed are still worth
	// reporting: switch to a short grace context and harvest them (a
	// placed job answers in one GET; the first unplaced one burns the
	// grace and ends the loop).
	var latencies []float64
	pollCtx := ctx
	for _, id := range ids {
		if pollCtx == ctx && ctx.Err() != nil {
			interrupted = true
			var cancel context.CancelFunc
			pollCtx, cancel = context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
		}
		ms, err := waitPlaced(pollCtx, client, base, id, *lgWait)
		if err != nil {
			if ctx.Err() != nil || pollCtx.Err() != nil {
				interrupted = true
				break
			}
			return fmt.Errorf("job %d: %w", id, err)
		}
		latencies = append(latencies, ms)
	}
	if interrupted {
		fmt.Printf("loadgen: interrupted — reporting %d of %d jobs\n", len(latencies), len(jobs))
	}
	if len(latencies) == 0 {
		return fmt.Errorf("interrupted before any job was placed")
	}

	restamps, drops, err := countReplacements(client, base)
	if err != nil {
		return fmt.Errorf("fetch events: %w", err)
	}

	q := metrics.Percentiles(latencies, 50, 95, 99)
	perMin := float64(len(ids)) / submitWall.Seconds() * 60
	fmt.Printf("loadgen: submitted %d jobs in %.1fs (%.0f jobs/min)\n",
		len(ids), submitWall.Seconds(), perMin)
	fmt.Printf("loadgen: submit→placement latency p50=%.2fms p95=%.2fms p99=%.2fms\n",
		q[0], q[1], q[2])
	fmt.Printf("loadgen: cluster updates observed: %d drop events, %d re-placements (restamp)\n",
		drops, restamps)
	if err := reportSolverStats(client, base); err != nil {
		return fmt.Errorf("fetch metrics: %w", err)
	}
	// An interrupted run may have stopped before the mid-run update
	// fired, so only a full run treats zero re-placements as a failure.
	if !interrupted && *lgDrop != "" && restamps == 0 {
		return fmt.Errorf("mid-run update produced no re-placements in /debug/events")
	}
	return nil
}

// reportSolverStats scrapes /metrics.txt for the server-side solver
// picture: LP solver wall time and event-loop stalls.
func reportSolverStats(client *http.Client, base string) error {
	resp, err := client.Get(base + "/metrics.txt")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics.txt: %s", resp.Status)
	}
	var (
		solves      float64
		solveCount  int
		solveMeanNs float64
		stallMaxNs  float64
		stallCount  int
		stallMeanNs float64

		// Self-healing picture: zero-valued and absent metrics both read
		// as 0; the health line only prints for supervised servers, the
		// healing line whenever anything healed.
		health      = map[string]float64{}
		supervised  bool
		breakerOpen float64
		autoHeals   float64
		panicsSeen  float64
		quarantined float64
		deduped     float64
	)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		switch fields[0] {
		case "counter":
			v, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				continue
			}
			switch fields[1] {
			case "lp.solves":
				solves = v
			case "federation.auto_restarts":
				autoHeals = v
			case "engine.panics_recovered":
				panicsSeen += v
			case "federation.panics_healed":
				panicsSeen += v
			case "journal.records_quarantined":
				quarantined = v
			case "federation.submit_deduped":
				deduped = v
			}
		case "gauge":
			if state, ok := strings.CutPrefix(fields[1], "federation.shard_health."); ok {
				supervised = true
				if v, err := strconv.ParseFloat(fields[2], 64); err == nil {
					health[state] = v
				}
				continue
			}
			if fields[1] == "federation.breaker_open" {
				if v, err := strconv.ParseFloat(fields[2], 64); err == nil {
					breakerOpen = v
				}
				continue
			}
			if fields[1] != "engine.loop_stall_max_ns" {
				continue
			}
			// At one shard this is the max observed stall; with more the
			// merged scrape sums shard gauges, making it an upper bound.
			if v, err := strconv.ParseFloat(fields[2], 64); err == nil && v > stallMaxNs {
				stallMaxNs = v
			}
		case "histogram":
			switch fields[1] {
			case "lp.solve_ns":
				for _, f := range fields[2:] {
					if v, ok := strings.CutPrefix(f, "count="); ok {
						solveCount, _ = strconv.Atoi(v)
					}
					if v, ok := strings.CutPrefix(f, "mean="); ok {
						solveMeanNs, _ = strconv.ParseFloat(v, 64)
					}
				}
			case "engine.loop_stall_ns":
				for _, f := range fields[2:] {
					if v, ok := strings.CutPrefix(f, "count="); ok {
						stallCount, _ = strconv.Atoi(v)
					}
					if v, ok := strings.CutPrefix(f, "mean="); ok {
						stallMeanNs, _ = strconv.ParseFloat(v, 64)
					}
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	totalMs := solveMeanNs * float64(solveCount) / 1e6
	fmt.Printf("loadgen: LP solver: %.0f solves, %.1fms total wall time (mean %.2fms)\n",
		solves, totalMs, solveMeanNs/1e6)
	fmt.Printf("loadgen: event-loop stall: max %.2fms, %d stalls ≥ floor (mean %.2fms)\n",
		stallMaxNs/1e6, stallCount, stallMeanNs/1e6)
	if supervised {
		fmt.Printf("loadgen: shard health: %.0f healthy / %.0f suspect / %.0f down / %.0f restarting / %.0f parked (breaker open: %.0f)\n",
			health["healthy"], health["suspect"], health["down"], health["restarting"], health["parked"], breakerOpen)
	}
	if supervised || autoHeals+panicsSeen+quarantined+deduped > 0 {
		fmt.Printf("loadgen: self-healing: %.0f auto-restarts, %.0f panics recovered, %.0f journal records quarantined, %.0f submits deduped\n",
			autoHeals, panicsSeen, quarantined, deduped)
	}
	return nil
}

func fetchCluster(client *http.Client, base string) (*tetrium.Cluster, error) {
	resp, err := client.Get(base + "/v1/cluster")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/cluster: %s", resp.Status)
	}
	var cs api.ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		return nil, err
	}
	sites := make([]tetrium.Site, len(cs.Sites))
	for i, s := range cs.Sites {
		sites[i] = tetrium.Site{Name: s.Name, Slots: s.Slots, UpBW: s.UpBW, DownBW: s.DownBW}
	}
	return tetrium.NewCluster(sites), nil
}

// submitJob posts one job, retrying on 429 backpressure until accepted.
func submitJob(client *http.Client, base string, j *tetrium.Job) (int, error) {
	body, err := json.Marshal(api.FromWorkload(j))
	if err != nil {
		return 0, err
	}
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			resp.Body.Close()
			if attempt > 600 {
				return 0, fmt.Errorf("still backpressured after %d attempts", attempt)
			}
			wait := time.Duration(1+attempt%5) * 100 * time.Millisecond
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if s, err := strconv.Atoi(ra); err == nil {
					wait = time.Duration(s) * time.Second
				}
			}
			time.Sleep(wait)
			continue
		}
		var st api.JobStatus
		derr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return 0, fmt.Errorf("POST /v1/jobs: %s", resp.Status)
		}
		if derr != nil {
			return 0, derr
		}
		return st.ID, nil
	}
}

// waitPlaced polls one job until the engine has made its first placement
// decision and returns the server-measured submit→placement latency.
func waitPlaced(ctx context.Context, client *http.Client, base string, id int, bound time.Duration) (float64, error) {
	deadline := time.Now().Add(bound)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%d", base, id), nil)
		if err != nil {
			return 0, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		var st api.JobStatus
		derr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if derr != nil {
			return 0, derr
		}
		if st.PlacedUnixMs != 0 {
			return st.SubmitToPlaceMs, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("not placed within %s (state %s)", bound, st.State)
		}
		select {
		case <-time.After(20 * time.Millisecond):
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

func postDrop(client *http.Client, base, spec string) error {
	parts := strings.Split(spec, ":")
	if len(parts) != 2 {
		return fmt.Errorf("want site:frac, got %q", spec)
	}
	site, err := strconv.Atoi(parts[0])
	if err != nil {
		return err
	}
	frac, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return err
	}
	body, _ := json.Marshal(api.UpdateRequest{Sites: []api.SiteUpdate{{Site: site, Frac: frac}}})
	resp, err := client.Post(base+"/v1/cluster/update", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/cluster/update: %s", resp.Status)
	}
	var ur api.UpdateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		return err
	}
	fmt.Printf("cluster update: server re-placed %d stages\n", ur.StagesReplaced)
	return nil
}

// countReplacements scans /debug/events for §4.2 activity: DropEvents
// and Restamp placements.
func countReplacements(client *http.Client, base string) (restamps, drops int, err error) {
	resp, err := client.Get(base + "/debug/events")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /debug/events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec struct {
			K string `json:"k"`
			E struct {
				Restamp bool `json:"restamp"`
			} `json:"e"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue
		}
		switch rec.K {
		case "placement":
			if rec.E.Restamp {
				restamps++
			}
		case "drop":
			drops++
		}
	}
	return restamps, drops, sc.Err()
}

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"tetrium/internal/cluster"
	"tetrium/internal/engine"
	"tetrium/internal/engine/api"
	"tetrium/internal/federation"
	"tetrium/internal/journal"
	"tetrium/internal/obs"
	"tetrium/internal/place"
	"tetrium/internal/sched"
)

// span is one interval recorded at a layer boundary. job is the index of
// the job it belongs to, shared by all of that job's spans; -1 when the
// boundary does not say (a placer call carries no job).
type span struct {
	layer string // api | engine | place | sim
	name  string
	job   int
	start time.Time
	end   time.Time
}

// jobKey names a job as an engine shard sees it.
type jobKey struct{ shard, id int }

// jobTrace is what the tracer remembers about a live job.
type jobTrace struct {
	idx      int
	arrival  time.Time
	placed   bool
	lastDone time.Time
	gapOpen  bool // a stage finished and the job has not launched another since
}

// tracer keeps spans in memory and joins the events of one job across
// layers. All methods are safe for concurrent use: handlers, solve
// workers and shard event loops call it at once.
type tracer struct {
	ops []op // the schedule, to map a request's sequence number to its job

	mu          sync.Mutex
	spans       []span
	submitStart map[int]time.Time // handler entry by job index
	handlerDur  map[int]time.Duration
	jobs        map[jobKey]*jobTrace
	placeCalls  int
	placeErrors int
}

func newTracer(ops []op) *tracer {
	return &tracer{
		ops:         ops,
		submitStart: map[int]time.Time{},
		handlerDur:  map[int]time.Duration{},
		jobs:        map[jobKey]*jobTrace{},
	}
}

func (t *tracer) add(layer, name string, job int, start, end time.Time) {
	t.spans = append(t.spans, span{layer: layer, name: name, job: job, start: start, end: end})
}

// routeName names the API routes the benchmark times; other requests
// (polls for idleness, listings) get "".
func routeName(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		return "post_jobs"
	case r.Method == http.MethodPost && r.URL.Path == "/v1/cluster/update":
		return "update"
	case r.Method == http.MethodGet && r.URL.Path == "/metrics":
		return "metrics"
	}
	return ""
}

// wrap times every request through the mounted handler.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := routeName(r)
		seq, err := strconv.Atoi(r.Header.Get(opHeader))
		if err != nil {
			seq = -1
		}
		job := -1
		if name == "post_jobs" && seq >= 0 && seq < len(t.ops) {
			job = t.ops[seq].arg
		}
		start := time.Now()
		if job >= 0 {
			t.mu.Lock()
			t.submitStart[job] = start
			t.mu.Unlock()
		}
		h.ServeHTTP(w, r)
		end := time.Now()
		if name == "" {
			return
		}
		t.mu.Lock()
		t.add("api", name, job, start, end)
		if seq >= 0 {
			t.handlerDur[seq] = end.Sub(start)
		}
		t.mu.Unlock()
	})
}

// shardObserver stamps wall time on every event one engine shard emits.
type shardObserver struct {
	t     *tracer
	shard int
}

func (o shardObserver) Emit(ev obs.Event) { o.t.event(o.shard, ev, time.Now()) }

func (t *tracer) event(shard int, ev obs.Event, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch e := ev.(type) {
	case obs.JobArrival:
		jt := &jobTrace{idx: jobIndex(e.Name), arrival: now}
		t.jobs[jobKey{shard, e.Job}] = jt
		if st, ok := t.submitStart[jt.idx]; ok {
			t.add("engine", "admit", jt.idx, st, now)
			delete(t.submitStart, jt.idx)
		}
	case obs.Placement:
		if jt := t.jobs[jobKey{shard, e.Job}]; jt != nil && !jt.placed {
			jt.placed = true
			t.add("engine", "first_place", jt.idx, jt.arrival, now)
		}
	case obs.StageDone:
		if jt := t.jobs[jobKey{shard, e.Job}]; jt != nil {
			jt.lastDone, jt.gapOpen = now, true
		}
	case obs.StageLaunch:
		if jt := t.jobs[jobKey{shard, e.Job}]; jt != nil && jt.gapOpen {
			jt.gapOpen = false
			t.add("engine", "stage_gap", jt.idx, jt.lastDone, now)
		}
	case obs.JobDone:
		k := jobKey{shard, e.Job}
		if jt := t.jobs[k]; jt != nil {
			t.add("engine", "job", jt.idx, jt.arrival, now)
			delete(t.jobs, k)
		}
	}
}

// tracedPlacer records a span around every call into the placer it
// wraps; Name and the placements themselves pass through unchanged.
type tracedPlacer struct {
	place.Placer
	t *tracer
}

func (p tracedPlacer) PlaceMap(res place.Resources, req place.MapRequest) (place.MapPlacement, error) {
	start := time.Now()
	mp, err := p.Placer.PlaceMap(res, req)
	p.t.placeCall("map", start, time.Now(), err)
	return mp, err
}

func (p tracedPlacer) PlaceReduce(res place.Resources, req place.ReduceRequest) (place.ReducePlacement, error) {
	start := time.Now()
	rp, err := p.Placer.PlaceReduce(res, req)
	p.t.placeCall("reduce", start, time.Now(), err)
	return rp, err
}

func (t *tracer) placeCall(name string, start, end time.Time, err error) {
	t.mu.Lock()
	t.add("place", name, -1, start, end)
	t.placeCalls++
	if err != nil {
		t.placeErrors++
	}
	t.mu.Unlock()
}

// tetriumPlacer is the Tetrium placer tetrium-serve and Simulate build
// for an n-site cluster: above 16 sites the map LP's candidate
// destinations are capped at 10.
func tetriumPlacer(n int) place.Placer {
	if n > 16 {
		return place.Tetrium{MaxDest: 10}
	}
	return place.Tetrium{}
}

// durations returns the durations, in µs, of the spans of one layer and
// name.
func (t *tracer) durations(layer, name string) []float64 {
	var xs []float64
	for _, s := range t.spans {
		if s.layer == layer && s.name == name {
			xs = append(xs, us(s.end.Sub(s.start)))
		}
	}
	return xs
}

// traceEvent is one Chrome trace-event record ("X": a complete span).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON, which
// Perfetto loads. Each layer is a process; within it spans are packed
// onto as few lanes (threads) as keep them from overlapping. Every span
// of a job carries the job's index as args.job.
func (t *tracer) writeChrome(path string) error {
	spans := append([]span(nil), t.spans...)
	sort.Slice(spans, func(a, b int) bool { return spans[a].start.Before(spans[b].start) })
	var t0 time.Time
	if len(spans) > 0 {
		t0 = spans[0].start
	}
	pids := map[string]int{"api": 1, "engine": 2, "place": 3, "sim": 4}
	lanes := map[string][]time.Time{} // per layer: when each lane frees up
	events := make([]traceEvent, 0, len(spans)+4)
	for _, layer := range []string{"api", "engine", "place", "sim"} {
		events = append(events, traceEvent{Name: "process_name", Ph: "M", Pid: pids[layer], Args: map[string]any{"name": layer}})
	}
	for _, s := range spans {
		busy := lanes[s.layer]
		lane := -1
		for i, free := range busy {
			if !free.After(s.start) {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(busy)
			busy = append(busy, time.Time{})
		}
		busy[lane] = s.end
		lanes[s.layer] = busy
		ev := traceEvent{
			Name: s.layer + "." + s.name, Cat: s.layer, Ph: "X",
			Ts: us(s.start.Sub(t0)), Dur: us(s.end.Sub(s.start)),
			Pid: pids[s.layer], Tid: lane + 1,
		}
		if s.job >= 0 {
			ev.Args = map[string]any{"job": s.job}
		}
		events = append(events, ev)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildStack builds in process the stack tetrium-serve runs for wl, with
// the tracer's placer decorator and observer plugged in. It returns the
// handler tetrium-serve would mount and a function that stops the stack.
func buildStack(wl serveWorkload, t *tracer, journalPath string) (http.Handler, func(), error) {
	cl, err := cluster.Preset(clusterPreset, 1)
	if err != nil {
		return nil, nil, err
	}
	member := func(shard int) engine.Config {
		return engine.Config{
			Placer:     tracedPlacer{Placer: tetriumPlacer(cl.N()), t: t},
			Policy:     sched.SRPT,
			Rho:        1,
			Eps:        1,
			MaxPending: 1024,
			TimeScale:  wl.timeScale,
			Analytics:  shardObserver{t: t, shard: shard},
		}
	}
	if wl.shards == 1 {
		jnl, restore, err := journal.Open(journalPath, 0)
		if err != nil {
			return nil, nil, err
		}
		cfg := member(0)
		cfg.Cluster, cfg.Journal, cfg.Restore = cl, jnl, restore
		eng, err := engine.New(cfg)
		if err != nil {
			jnl.Close()
			return nil, nil, err
		}
		return api.Handler(eng), eng.Close, nil
	}
	smap, err := federation.ParseShardMap("hash", wl.shards)
	if err != nil {
		return nil, nil, err
	}
	fed, err := federation.New(federation.Config{
		Shards:      wl.shards,
		Cluster:     cl,
		ShardMap:    smap,
		JournalPath: journalPath,
		Member:      func(shard int) (engine.Config, error) { return member(shard), nil },
	})
	if err != nil {
		return nil, nil, err
	}
	return federation.Handler(fed), fed.Close, nil
}

// serveTraced runs the schedule a second time against the stack built
// in process with spans around its layer boundaries, and returns the
// per-layer metrics the spans give. untraced holds the end-to-end
// metrics of the untraced run, to report the tracing overhead.
func serveTraced(wl serveWorkload, cfg runConfig, in *inputs, c *client, dir string, untraced []named, rep *report) ([]named, error) {
	jdir := filepath.Join(dir, "traced")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		return nil, err
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	t := newTracer(in.ops)
	h, stopStack, err := buildStack(wl, t, filepath.Join(jdir, "journal"))
	if err != nil {
		return nil, err
	}
	defer stopStack()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: t.wrap(h)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	wr, err := drive(in, c, base, nil, rep)
	if err == nil {
		probe(wl, in, c, base, wr)
		checkJobs(c, base, wr.outs, rep)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := srv.Shutdown(ctx); serr != nil {
		rep.fail("traced server shutdown: %v", serr)
	}
	<-served
	c.tr.CloseIdleConnections()
	if err != nil {
		return nil, err
	}
	countFailures(wr.outs, rep)
	countFailures(wr.probes, rep)
	lateness(wr.outs, rep, "traced.")

	// Tracing overhead: the traced run's end-to-end figures minus the
	// untraced run's.
	all := append(append([]outcome(nil), wr.outs...), wr.probes...)
	ack := latencies(wr.outs, opSubmit)
	upd, scr := windowOrProbes(wr, opUpdate, latencies), windowOrProbes(wr, opScrape, latencies)
	tracedE2E := map[string]float64{
		"ack_p50_ms": median(ack), "ack_p99_ms": tail(ack, 99),
		"update_p50_ms": median(upd), "update_p90_ms": tail(upd, 90),
		"scrape_p50_ms": median(scr), "scrape_p90_ms": tail(scr, 90),
	}
	for _, m := range untraced {
		if v, ok := tracedE2E[m.name]; ok {
			rep.info = append(rep.info, named{"trace_overhead." + m.name, m.unit, v - m.value})
		}
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	var gaps []float64
	for _, o := range all {
		if d, ok := t.handlerDur[o.seq]; ok && o.err == nil {
			gaps = append(gaps, us(o.done-o.start-d))
		}
	}
	// Handler times of the requests the end-to-end timings were taken
	// from, in the order they were sent.
	handler := func(outs []outcome, k opKind) []float64 {
		var xs []float64
		for _, o := range outs {
			if d, ok := t.handlerDur[o.seq]; ok && o.op.kind == k {
				xs = append(xs, us(d))
			}
		}
		return xs
	}
	jobs := float64(wr.jobs)
	post := handler(wr.outs, opSubmit)
	updH, metH := windowOrProbes(wr, opUpdate, handler), windowOrProbes(wr, opScrape, handler)
	admitD, firstD, gapD := t.durations("engine", "admit"), t.durations("engine", "first_place"), t.durations("engine", "stage_gap")
	mapD, redD := t.durations("place", "map"), t.durations("place", "reduce")
	layers := []named{
		{"api.post_jobs_us.p50", "us", median(post)},
		{"api.post_jobs_us.p99", "us", tail(post, 99)},
		{"api.update_us.p50", "us", median(updH)},
		{"api.update_us.p90", "us", tail(updH, 90)},
		{"api.metrics_us.p50", "us", median(metH)},
		{"api.metrics_us.p90", "us", tail(metH, 90)},
		{"api.client_gap_us.p50", "us", median(gaps)},
		{"engine.admit_us.p50", "us", median(admitD)},
		{"engine.admit_us.p99", "us", tail(admitD, 99)},
		{"engine.first_place_us.p50", "us", median(firstD)},
		{"engine.first_place_us.p99", "us", tail(firstD, 99)},
		{"engine.stage_gap_us.p50", "us", median(gapD)},
		{"engine.stage_gap_us.p99", "us", tail(gapD, 99)},
		{"place.map_us.p50", "us", median(mapD)},
		{"place.map_us.p99", "us", tail(mapD, 99)},
		{"place.reduce_us.p50", "us", median(redD)},
		{"place.reduce_us.p99", "us", tail(redD, 99)},
		{"place.calls_per_job", "count", ratio(float64(t.placeCalls), jobs)},
		{"place.errors", "count", float64(t.placeErrors)},
	}

	path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-seed%d.json", wl.name, cfg.seed))
	if err := t.writeChrome(path); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("# traced run: %d spans written to %s\n", len(t.spans), path)

	// Heap the stack holds for the jobs it served, with the spans gone.
	t.spans, t.handlerDur = nil, nil
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	heap := float64(after.HeapInuse) - float64(before.HeapInuse)
	layers = append(layers, named{"obs.heap_kb_per_job", "kB", ratio(heap/1024, jobs)})
	return layers, nil
}

// sortNamed orders metrics by name.
func sortNamed(ms []named) {
	sort.Slice(ms, func(a, b int) bool { return ms[a].name < ms[b].name })
}

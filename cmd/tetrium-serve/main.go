// Command tetrium-serve runs the online scheduling service: a daemon
// that accepts analytics jobs over HTTP/JSON and schedules them with the
// paper's pipeline (LP placement §3, SRPT ordering §4.1, WAN budget
// §4.3, ε-fairness §4.4, k-site-limited re-placement on cluster updates
// §4.2).
//
// Server mode (default):
//
//	tetrium-serve -addr :8080 -cluster ec2-8 -scheduler tetrium
//
//	POST /v1/jobs            submit a job (trace-file stage schema)
//	GET  /v1/jobs            list jobs
//	GET  /v1/jobs/{id}       job detail
//	GET  /v1/cluster         live capacity view
//	POST /v1/cluster/update  §4.2 dynamics: {"sites":[{"site":0,"frac":0.4}]}
//	GET  /metrics            Prometheus text format
//	GET  /metrics.txt        native registry dump
//	GET  /debug/events       JSONL event stream (?since=<seq> cursor pagination)
//	GET  /v1/analytics/...   fleet analytics reports (with -analytics)
//	GET  /healthz            liveness
//	GET  /readyz             readiness (503 while replaying the journal or draining)
//
// SIGINT/SIGTERM drains gracefully: admission stops, in-flight jobs
// finish (up to -drain-timeout), then the server exits.
//
// Failure domain: -fault-spec injects deterministic site crashes, link
// degradation, stragglers, and solver stalls; -journal makes accepted
// jobs durable across a crash (kill -9 loses no admitted job);
// -speculate duplicates straggling stages; -solve-deadline bounds each
// placement solve before a greedy fallback takes over.
//
// Load-generator mode replays a synthetic trace against a running
// server and reports submit-to-placement latency and throughput:
//
//	tetrium-serve -loadgen -target http://127.0.0.1:8080 -jobs 100 -rate 600
//
// Smoke mode starts an in-process server on an ephemeral port, runs a
// five-job end-to-end check (submit → poll → update → metrics → drain),
// and exits non-zero on any failure:
//
//	tetrium-serve -smoke
//
// Sharded mode (-shards N with N > 1) runs N shared-nothing engine
// shards behind the federation router: same API surface, aggregated
// /v1/cluster and /metrics, merged /debug/events, plus GET
// /v1/federation for per-shard state. -shards 1 (the default) is the
// plain single-engine path, byte-identical to the pre-federation
// server. With -journal each shard journals to <path>.shard<i>:
//
//	tetrium-serve -addr :8080 -shards 4 -shard-by hash -journal /var/lib/tetrium/j
//
// -smoke with -shards N > 1 runs the federation round-trip instead:
// submit over the wire, kill and restore one shard mid-flight, verify
// no admitted job is lost.
//
// -supervise (with -shards > 1) turns the router self-healing: each
// shard is heartbeat-probed; a wedged, panicked, or stopped shard is
// restarted automatically from its journal with jittered exponential
// backoff (-restart-backoff sets the first delay), and a shard that
// keeps flapping is parked by a circuit breaker until an operator
// restarts it. POST /v1/jobs accepts an Idempotency-Key header making
// submit retries exactly-once across shard crashes. -shard-by,
// -supervise and -restart-backoff set explicitly without -shards > 1
// exit with status 2 rather than being silently ignored.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tetrium"
	"tetrium/internal/cluster"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		clusterName = flag.String("cluster", "ec2-8", "cluster preset: ec2-8|ec2-30|sim-50|paper|osp")
		seed        = flag.Int64("seed", 1, "preset/trace seed")
		schedName   = flag.String("scheduler", "tetrium", "tetrium|iridium|in-place|centralized|tetris")
		rho         = flag.Float64("rho", 1, "WAN budget knob (0..1)")
		eps         = flag.Float64("eps", 1, "fairness knob (0..1)")
		updateK     = flag.Int("update-k", 0, "sites updatable per placement on a cluster change (0 = all)")
		maxPending  = flag.Int("max-pending", 1024, "admission bound; beyond it submissions get 429")
		timeScale   = flag.Float64("time-scale", 1e-3, "estimated stage seconds → wall seconds (<= 0: instant)")
		eventsCap   = flag.Int("events-cap", 65536, "retained /debug/events entries")
		solvers     = flag.Int("solve-workers", 0, "off-loop placement solver pool size (0 = GOMAXPROCS)")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain bound on shutdown")
		checkRun    = flag.Bool("check", false, "certify every LP solve")

		faultSpec  = flag.String("fault-spec", "", "fault injection spec, e.g. \"crash@10s:site=1,dur=30s;straggle:p=0.05,x=4\"")
		faultSeed  = flag.Int64("fault-seed", 1, "fault injector seed (straggler lottery)")
		journalPth = flag.String("journal", "", "durable-restart journal path (empty: no journal)")
		snapEvery  = flag.Int("snapshot-every", 0, "journal records between snapshot+truncate (0 = 1024)")
		speculate  = flag.Bool("speculate", false, "launch duplicates of straggling stages; first finish wins")
		solveDL    = flag.Duration("solve-deadline", 0, "per-stage LP solve bound before greedy fallback (0: none)")

		analytics   = flag.Bool("analytics", false, "enable the fleet-analytics store and /v1/analytics endpoints")
		analyticsSP = flag.String("analytics-snap", "", "fleet store snapshot path (empty: no snapshots)")
		analyticsSE = flag.Duration("analytics-snap-every", 0, "fleet store snapshot interval (0: 30s default)")

		shards    = flag.Int("shards", 1, "engine shards behind the federation router (1 = single engine)")
		shardBy   = flag.String("shard-by", "hash", "submission partitioning with -shards > 1: hash|site")
		supervise = flag.Bool("supervise", false, "with -shards > 1: self-healing supervisor (heartbeat probes, auto-restart with backoff, flap breaker)")
		restartBO = flag.Duration("restart-backoff", 0, "with -shards > 1: supervisor first restart delay, doubling per failure (0 = 200ms)")

		loadgen = flag.Bool("loadgen", false, "run as load generator against -target")
		smoke   = flag.Bool("smoke", false, "run the in-process smoke check and exit")
	)
	addLoadgenFlags()
	flag.Parse()

	if *loadgen {
		// Ctrl-C mid-run still prints the partial latency report: the
		// generator watches the signal context and cuts over to reporting
		// whatever completed.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := runLoadgen(ctx, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "tetrium-serve: loadgen:", err)
			os.Exit(1)
		}
		return
	}

	if *shards <= 1 {
		// These configure the federation router; a single-engine server
		// would silently ignore them, so an explicit setting is an error.
		var routerOnly []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "supervise", "restart-backoff", "shard-by":
				routerOnly = append(routerOnly, "-"+f.Name)
			}
		})
		if len(routerOnly) > 0 {
			fmt.Fprintf(os.Stderr, "tetrium-serve: %s requires -shards > 1\n", strings.Join(routerOnly, ", "))
			os.Exit(2)
		}
	}

	sched, err := tetrium.ParseScheduler(*schedName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tetrium-serve:", err)
		os.Exit(2)
	}
	cl, err := cluster.Preset(*clusterName, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tetrium-serve:", err)
		os.Exit(2)
	}
	scale := *timeScale
	if scale <= 0 {
		scale = -1 // NewEngine: negative → instant completion
	}
	opts := tetrium.EngineOptions{
		Cluster:   cl,
		Scheduler: sched,
		Rho:       *rho, RhoSet: true,
		Eps: *eps, EpsSet: true,
		UpdateK:        *updateK,
		MaxPending:     *maxPending,
		TimeScale:      scale,
		EventCap:       *eventsCap,
		SolveWorkers:   *solvers,
		Check:          *checkRun,
		FaultSpec:      *faultSpec,
		FaultSeed:      *faultSeed,
		JournalPath:    *journalPth,
		SnapshotEvery:  *snapEvery,
		Speculate:      *speculate,
		SolveDeadline:  *solveDL,
		Supervise:      *supervise,
		RestartBackoff: *restartBO,

		Analytics:              *analytics,
		AnalyticsSnapshotPath:  *analyticsSP,
		AnalyticsSnapshotEvery: *analyticsSE,
	}

	if *shards > 1 {
		runFederation(opts, *shards, *shardBy, *clusterName, *addr, *smoke, *drainWait)
		return
	}

	eng, err := tetrium.NewEngine(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tetrium-serve:", err)
		os.Exit(1)
	}

	if *smoke {
		err := runSmoke(eng)
		eng.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tetrium-serve: smoke:", err)
			os.Exit(1)
		}
		fmt.Println("smoke: ok")
		return
	}

	// Listen before serving so ":0" works (tests bind an ephemeral port
	// and parse the actual address from the banner).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		eng.Close()
		fmt.Fprintln(os.Stderr, "tetrium-serve:", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: tetrium.EngineHandler(eng)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Printf("tetrium-serve: listening on %s (cluster %s, %d sites, scheduler %s)\n",
		ln.Addr(), *clusterName, cl.N(), sched)

	select {
	case err := <-errc:
		eng.Close()
		fmt.Fprintln(os.Stderr, "tetrium-serve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Println("tetrium-serve: draining...")
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := eng.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "tetrium-serve: drain:", err)
	}
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "tetrium-serve: shutdown:", err)
	}
	eng.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "tetrium-serve:", err)
		os.Exit(1)
	}
	fmt.Println("tetrium-serve: stopped")
}

package tetrium

import (
	"errors"
	"net/http"
	"time"

	"tetrium/internal/engine"
	"tetrium/internal/engine/api"
	"tetrium/internal/fault"
	"tetrium/internal/federation"
	"tetrium/internal/fleet"
	"tetrium/internal/journal"
)

// Engine is the online scheduling service: the counterpart of Simulate
// that accepts jobs while they arrive, holds live cluster state behind a
// single-writer event loop, and runs the paper's placement/ordering
// pipeline continuously. Create one with NewEngine; serve it over HTTP
// with EngineHandler (see cmd/tetrium-serve).
type Engine = engine.Engine

// EngineStatus types re-exported for callers of Engine methods.
type (
	// EngineJobStatus is a job snapshot returned by Engine.Submit/Job/Jobs.
	EngineJobStatus = engine.JobStatus
	// EngineClusterStatus is the live cluster view from Engine.Cluster.
	EngineClusterStatus = engine.ClusterStatus
	// EngineSiteUpdate is one §4.2 capacity change for Engine.UpdateCluster.
	EngineSiteUpdate = engine.SiteUpdate
)

// Engine sentinel errors.
var (
	// ErrEngineQueueFull: admission would exceed MaxPending — back off.
	ErrEngineQueueFull = engine.ErrQueueFull
	// ErrEngineDraining: the engine no longer accepts jobs.
	ErrEngineDraining = engine.ErrDraining
)

// EngineOptions configures NewEngine. The knob conventions match
// Options: Rho/Eps zero values mean 1 unless the corresponding Set flag
// is true.
type EngineOptions struct {
	Cluster   *Cluster
	Scheduler Scheduler

	// Rho is the WAN-budget knob ρ (§4.3); zero means 1 unless RhoSet.
	Rho    float64
	RhoSet bool
	// Eps is the fairness knob ε (§4.4); zero means 1 unless EpsSet.
	Eps    float64
	EpsSet bool

	// UpdateK bounds per-placement site changes on cluster updates
	// (§4.2); 0 allows full updates.
	UpdateK int
	// MaxPending bounds admitted-but-unfinished jobs (backpressure);
	// 0 means the engine default (1024).
	MaxPending int
	// TimeScale converts LP-estimated stage seconds to wall seconds.
	// 0 means the serving default of 1e-3 (1000× faster than estimated);
	// negative completes stages instantly.
	TimeScale float64
	// EventCap bounds the /debug/events buffer; 0 means the engine
	// default (65536).
	EventCap int
	// SolveWorkers sizes the off-loop placement solver pool; 0 means
	// GOMAXPROCS.
	SolveWorkers int

	// Check runs every LP solve under the certification layer.
	Check bool

	// FaultSpec, when non-empty, injects deterministic faults (site
	// crash/rejoin, link degrade/partition, stragglers, solve stalls)
	// per the internal/fault grammar, seeded by FaultSeed.
	FaultSpec string
	FaultSeed int64
	// JournalPath, when non-empty, makes accepted jobs durable: the
	// journal at this path is replayed on startup (a restart loses no
	// admitted job) and appended to while serving. SnapshotEvery bounds
	// journal growth (0: default 1024 records per snapshot+truncate).
	JournalPath   string
	SnapshotEvery int
	// Speculate launches duplicates of straggling stages on the fastest
	// eligible site; first finish wins.
	Speculate bool
	// SolveDeadline bounds each placement LP solve before the greedy
	// fallback places the stage instead; 0 disables.
	SolveDeadline time.Duration

	// Supervise (federation only) turns on the self-healing supervisor:
	// per-shard heartbeat probes, automatic jittered-backoff restarts of
	// wedged/panicked/stopped shards through journal replay, and a
	// circuit breaker that parks flapping shards.
	Supervise bool
	// RestartBackoff is the supervisor's first restart delay (doubles
	// per consecutive failure up to 30s); 0 means the default 200ms.
	RestartBackoff time.Duration

	// Analytics enables the fleet-analytics store: every emitted event
	// feeds an in-memory per-tenant columnar store served under
	// /v1/analytics. Disabled, the event path does no extra work.
	Analytics bool
	// AnalyticsSnapshotPath, when non-empty (with Analytics), persists
	// a JSON snapshot of the store every AnalyticsSnapshotEvery
	// (default 30s); a final snapshot is written when the engine closes.
	AnalyticsSnapshotPath  string
	AnalyticsSnapshotEvery time.Duration
}

// NewEngine starts an online scheduling engine. Callers must Close it
// (or Drain then Close for a graceful stop).
func NewEngine(o EngineOptions) (*Engine, error) {
	rho := 1.0
	if o.RhoSet {
		rho = o.Rho
	}
	eps := 1.0
	if o.EpsSet {
		eps = o.Eps
	}
	n := 0
	if o.Cluster != nil {
		n = o.Cluster.N()
	}
	placer, policy, err := plannerFor(o.Scheduler, n, o.Check)
	if err != nil {
		return nil, err
	}
	scale := o.TimeScale
	switch {
	case scale == 0:
		scale = 1e-3
	case scale < 0:
		scale = 0
	}
	var inj *fault.Injector
	if o.FaultSpec != "" {
		inj, err = fault.Parse(o.FaultSpec, o.FaultSeed)
		if err != nil {
			return nil, err
		}
	}
	var (
		jnl     *journal.Journal
		restore *journal.State
	)
	if o.JournalPath != "" {
		jnl, restore, err = journal.Open(o.JournalPath, o.SnapshotEvery)
		if err != nil {
			return nil, err
		}
	}
	var analytics *fleet.Store
	if o.Analytics {
		analytics = fleet.New(fleet.Config{
			SnapshotPath:  o.AnalyticsSnapshotPath,
			SnapshotEvery: o.AnalyticsSnapshotEvery,
		})
	}
	cfg := engine.Config{
		Cluster:       o.Cluster,
		Placer:        placer,
		Policy:        policy,
		Rho:           rho,
		Eps:           eps,
		UpdateK:       o.UpdateK,
		MaxPending:    o.MaxPending,
		TimeScale:     scale,
		EventCap:      o.EventCap,
		SolveWorkers:  o.SolveWorkers,
		Faults:        inj,
		Journal:       jnl,
		Restore:       restore,
		Speculate:     o.Speculate,
		SolveDeadline: o.SolveDeadline,
	}
	if analytics != nil {
		// Assigned only when non-nil: a typed-nil *fleet.Store in the
		// interface field would defeat the hot path's nil check.
		cfg.Analytics = analytics
	}
	eng, err := engine.New(cfg)
	if err != nil {
		if jnl != nil {
			jnl.Close()
		}
		if analytics != nil {
			analytics.Close()
		}
		return nil, err
	}
	return eng, nil
}

// EngineHandler serves an Engine over HTTP/JSON: POST /v1/jobs,
// GET /v1/jobs[/{id}], GET /v1/cluster, POST /v1/cluster/update,
// GET /metrics (Prometheus), GET /metrics.txt, GET /debug/events
// (JSONL), GET /healthz (liveness), GET /readyz (readiness).
func EngineHandler(e *Engine) http.Handler { return api.Handler(e) }

// Federation is the sharded multi-engine service: N shared-nothing
// engine shards (each owning a 1/N capacity slice of the cluster and,
// when journaled, its own journal file) behind a thin router that
// load-balances admission, fans out §4.2 updates, and aggregates jobs,
// metrics, readiness, and debug events into one API surface. Create
// one with NewFederation; serve it with FederationHandler.
type Federation = federation.Federation

// NewFederation starts a sharded scheduling service: `shards` engine
// shards configured from the same EngineOptions that NewEngine takes.
// shardBy picks the submission partitioning: "hash" (default) spreads
// jobs by name hash, "site" routes each job to the shard owning its
// dominant input site. Each shard builds its own placer and solve
// pool; JournalPath becomes a per-shard prefix (<path>.shard<i>);
// FaultSpec is injected into every shard with seed FaultSeed+shard.
// The fleet-analytics store is not yet supported behind the router —
// set Analytics on a single engine instead.
//
// With shards == 1 the engine path is strictly more capable; use
// NewEngine (cmd/tetrium-serve does exactly that, keeping -shards 1
// bit-compatible with the pre-federation single-engine service).
func NewFederation(o EngineOptions, shards int, shardBy string) (*Federation, error) {
	if shards < 2 {
		return nil, errors.New("tetrium: NewFederation wants shards >= 2; use NewEngine for a single engine")
	}
	if o.Analytics {
		return nil, errors.New("tetrium: fleet analytics is not supported behind the federation router yet")
	}
	if o.Cluster == nil {
		return nil, errors.New("tetrium: Cluster is required")
	}
	smap, err := federation.ParseShardMap(shardBy, shards)
	if err != nil {
		return nil, err
	}
	rho := 1.0
	if o.RhoSet {
		rho = o.Rho
	}
	eps := 1.0
	if o.EpsSet {
		eps = o.Eps
	}
	scale := o.TimeScale
	switch {
	case scale == 0:
		scale = 1e-3
	case scale < 0:
		scale = 0
	}
	n := o.Cluster.N()
	member := func(shard int) (engine.Config, error) {
		placer, policy, err := plannerFor(o.Scheduler, n, o.Check)
		if err != nil {
			return engine.Config{}, err
		}
		cfg := engine.Config{
			Placer:        placer,
			Policy:        policy,
			Rho:           rho,
			Eps:           eps,
			UpdateK:       o.UpdateK,
			MaxPending:    o.MaxPending,
			TimeScale:     scale,
			EventCap:      o.EventCap,
			SolveWorkers:  o.SolveWorkers,
			Speculate:     o.Speculate,
			SolveDeadline: o.SolveDeadline,
		}
		if o.FaultSpec != "" {
			inj, err := fault.Parse(o.FaultSpec, o.FaultSeed+int64(shard))
			if err != nil {
				return engine.Config{}, err
			}
			cfg.Faults = inj
		}
		return cfg, nil
	}
	fcfg := federation.Config{
		Shards:        shards,
		Cluster:       o.Cluster,
		ShardMap:      smap,
		Member:        member,
		JournalPath:   o.JournalPath,
		SnapshotEvery: o.SnapshotEvery,
		Supervise:     o.Supervise,
		Supervisor: federation.SupervisorConfig{
			Enabled:     o.Supervise,
			BackoffBase: o.RestartBackoff,
		},
	}
	if o.FaultSpec != "" {
		// The same spec is armed once at the federation level for its
		// fleet-scoped clauses (panic@T:site=S, corrupt@T:shard=I,rec=N);
		// the per-shard injectors above skip those, and this one skips
		// the engine-scoped clauses, so nothing fires twice.
		inj, err := fault.Parse(o.FaultSpec, o.FaultSeed)
		if err != nil {
			return nil, err
		}
		fcfg.Faults = inj
	}
	return federation.New(fcfg)
}

// FederationHandler serves a Federation over HTTP/JSON with the same
// surface as EngineHandler plus GET /v1/federation (per-shard state);
// /debug/events merges the shard streams with a per-shard cursor
// vector.
func FederationHandler(f *Federation) http.Handler { return federation.Handler(f) }

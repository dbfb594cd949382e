package tetrium

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"tetrium/internal/engine"
	"tetrium/internal/fault"
	"tetrium/internal/federation"
	"tetrium/internal/fleet"
)

// EngineOptions configures NewFederation, the online scheduling
// service: the counterpart of Simulate that accepts jobs while they
// arrive and runs the paper's placement/ordering pipeline continuously.
// The knob conventions match Options: Rho/Eps zero values mean 1 unless
// the corresponding Set flag is true.
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

	// Supervise turns on the self-healing supervisor:
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
	// (default 30s); a final snapshot is written when the federation
	// closes.
	AnalyticsSnapshotPath  string
	AnalyticsSnapshotEvery time.Duration
}

// Federation is the online scheduling service: N ≥ 1 shared-nothing
// engine shards (each owning a 1/N capacity slice of the cluster and,
// when journaled, its own journal file) behind a thin router that
// load-balances admission, fans out §4.2 updates, and aggregates jobs,
// metrics, readiness, and debug events into one API surface. Create
// one with NewFederation; serve it with FederationHandler.
type Federation = federation.Federation

// NewFederation starts the scheduling service: `shards` (>= 1) engine
// shards behind the federation router, each configured from o. One
// shard is the whole cluster behind one engine. shardBy picks the
// submission partitioning: "hash" (default) spreads jobs by name hash,
// "site" routes each job to the shard owning its dominant input site.
// Each shard builds its own placer and solve pool; FaultSpec is
// injected into every shard with seed FaultSeed+shard. JournalPath is
// the journal file at one shard and a per-shard prefix
// (<path>.shard<i>) beyond. The fleet-analytics store needs a single
// shard (its job IDs are shard-local); it outlives shard restarts and
// is closed with the federation. Callers must Close the federation (or
// Drain then Close for a graceful stop).
func NewFederation(o EngineOptions, shards int, shardBy string) (*Federation, error) {
	if shards < 1 {
		return nil, fmt.Errorf("tetrium: NewFederation wants shards >= 1, got %d", shards)
	}
	if o.Analytics && shards > 1 {
		return nil, errors.New("tetrium: fleet analytics needs a single shard")
	}
	if o.Cluster == nil {
		return nil, errors.New("tetrium: Cluster is required")
	}
	smap, err := federation.ParseShardMap(shardBy, shards)
	if err != nil {
		return nil, err
	}
	fcfg := federation.Config{
		Shards:        shards,
		Cluster:       o.Cluster,
		ShardMap:      smap,
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
		// the per-shard injectors skip those, and this one skips the
		// engine-scoped clauses, so nothing fires twice.
		if fcfg.Faults, err = fault.Parse(o.FaultSpec, o.FaultSeed); err != nil {
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
	scale := o.TimeScale
	switch {
	case scale == 0:
		scale = 1e-3
	case scale < 0:
		scale = 0
	}
	fcfg.Member = func(shard int) (engine.Config, error) {
		placer, policy, err := plannerFor(o.Scheduler, o.Cluster.N(), o.Check)
		if err != nil {
			return engine.Config{}, err
		}
		cfg := engine.Config{
			Placer:        placer,
			Policy:        policy,
			Rho:           1,
			Eps:           1,
			UpdateK:       o.UpdateK,
			MaxPending:    o.MaxPending,
			TimeScale:     scale,
			EventCap:      o.EventCap,
			SolveWorkers:  o.SolveWorkers,
			Speculate:     o.Speculate,
			SolveDeadline: o.SolveDeadline,
		}
		if o.RhoSet {
			cfg.Rho = o.Rho
		}
		if o.EpsSet {
			cfg.Eps = o.Eps
		}
		if o.FaultSpec != "" {
			if cfg.Faults, err = fault.Parse(o.FaultSpec, o.FaultSeed+int64(shard)); err != nil {
				return engine.Config{}, err
			}
		}
		if analytics != nil {
			// Assigned only when non-nil: a typed-nil *fleet.Store in the
			// interface field would defeat the hot path's nil check.
			cfg.Analytics = analytics
		}
		return cfg, nil
	}
	f, err := federation.New(fcfg)
	if err != nil && analytics != nil {
		analytics.Close()
	}
	return f, err
}

// FederationHandler serves a Federation over HTTP/JSON: POST /v1/jobs
// (with an optional Idempotency-Key header), GET /v1/jobs[/{id}],
// GET /v1/cluster, POST /v1/cluster/update, GET /metrics (Prometheus),
// GET /metrics.txt, GET /debug/events (JSONL merged over the shards
// with a per-shard cursor vector), GET /v1/federation (per-shard
// state), /v1/analytics/... (with Analytics), GET /healthz (liveness)
// and GET /readyz (readiness).
func FederationHandler(f *Federation) http.Handler { return federation.Handler(f) }

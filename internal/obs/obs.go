// Package obs is the simulator's structured observability layer: a
// typed event trace emitted by the engine (internal/sim) and placer
// call sites, a metrics registry aggregating per-run series, and
// exporters (JSONL, Chrome/Perfetto trace_event JSON, text metrics,
// estimate-vs-actual report).
//
// The layer is zero-overhead when disabled: the engine guards every
// emission behind a single `observer != nil` interface check and builds
// no event values on the nil path, so a run without an observer
// allocates exactly what it did before this package existed.
//
// Determinism: the simulator is deterministic for a fixed seed and
// configuration, and every event field except wall-clock durations
// derives from simulated state, so the JSONL export of two same-seed
// runs is byte-identical. Wall-clock fields (LP solve latency,
// scheduling-instance wall time) are tagged `json:"-"`: they feed the
// metrics registry but never the event stream.
package obs

// Event is one typed occurrence in a simulated run. Concrete types are
// the exported structs below; exporters switch on them.
type Event interface {
	// Kind is a stable snake_case tag identifying the event type in
	// serialized streams.
	Kind() string
	// Time is the simulated time of the event in seconds.
	Time() float64
}

// Observer receives every event of a run, in simulation order.
// Implementations need not be safe for concurrent use: the engine is
// single-threaded and emits sequentially. A nil Observer in the
// simulator config disables the layer entirely.
type Observer interface {
	Emit(Event)
}

// JobArrival marks a job entering the system (§3 intro: arrivals
// trigger scheduling instances). Tenant is the submitting tenant (the
// fleet-analytics attribution key); the simulator leaves it empty, the
// serving engine stamps "default" when the submission named none.
type JobArrival struct {
	T      float64 `json:"t"`
	Job    int     `json:"job"`
	Name   string  `json:"name"`
	Tenant string  `json:"tenant,omitempty"`
	Stages int     `json:"stages"`
	Tasks  int     `json:"tasks"`
}

// JobDone marks a job's last stage completing.
type JobDone struct {
	T        float64 `json:"t"`
	Job      int     `json:"job"`
	Response float64 `json:"response"`
	WANBytes float64 `json:"wan_bytes"`
}

// StageReady marks a stage becoming schedulable (maps at arrival,
// reduces when their upstream dependencies finish). The gap between
// this and each task's launch is the task's queueing delay.
type StageReady struct {
	T     float64 `json:"t"`
	Job   int     `json:"job"`
	Stage int     `json:"stage"`
	Tasks int     `json:"tasks"`
}

// StageDone marks a stage's last task completing — the "actual" side of
// the estimate-vs-actual join. Rescued marks a stage finished by a
// speculative copy that beat the straggling original. SlotSeconds is
// the stage's cumulative slot consumption (slots held × wall seconds,
// across every attempt and speculative duplicate); the serving engine
// stamps it for fleet-analytics attribution, the simulator leaves it
// zero.
type StageDone struct {
	T           float64 `json:"t"`
	Job         int     `json:"job"`
	Stage       int     `json:"stage"`
	Rescued     bool    `json:"rescued,omitempty"`
	SlotSeconds float64 `json:"slot_seconds,omitempty"`
}

// StageLaunch marks a stage's tasks taking their slots on the serving
// engine (the sim's finer-grained equivalent is TaskLaunch). Emitted
// only when fleet analytics is enabled — it exists to let the analytics
// store track windowed per-site slot usage, and gating it keeps the
// no-analytics event path allocation-free.
type StageLaunch struct {
	T           float64 `json:"t"`
	Job         int     `json:"job"`
	Stage       int     `json:"stage"`
	Tasks       int     `json:"tasks"`
	Slots       int     `json:"slots"`
	SlotsBySite []int   `json:"slots_by_site"`
	Est         float64 `json:"est"`
	WANBytes    float64 `json:"wan_bytes,omitempty"` // cross-site bytes the placement moves
}

// SchedInstance summarizes one scheduling instance (§3 intro): which
// jobs were considered, the policy's chosen order, the free slots
// visible to the decision, and what was launched. WallNanos is the
// instance's wall-clock duration (the Fig. 7 quantity, subsuming the
// legacy Config.TrackSchedTime); it is excluded from serialized streams
// to keep them deterministic.
type SchedInstance struct {
	T          float64 `json:"t"`
	Seq        int     `json:"seq"`   // 1-based instance number
	Considered int     `json:"jobs"`  // jobs with runnable stages
	Order      []int   `json:"order"` // job IDs in policy order
	FreeSlots  int     `json:"free_slots"`
	Launched   int     `json:"launched"`
	LPSolves   int     `json:"lp_solves"`  // placements solved this instance
	CacheHits  int     `json:"cache_hits"` // placements reused this instance
	WallNanos  int64   `json:"-"`
}

// Placement records one placement decision for a stage: the placer, the
// LP's estimated network and compute times (the scheduler's T_j
// signal), and the per-site task quota the decision produced. Each new
// Placement for a (job, stage) re-stamps the stage's estimate for the
// estimate-vs-actual report — including the forced re-solves after a
// §4.2 resource drop, marked Restamp. SolveNanos is wall clock and
// excluded from serialized streams.
type Placement struct {
	T           float64 `json:"t"`
	Job         int     `json:"job"`
	Stage       int     `json:"stage"`
	StageKind   string  `json:"kind"` // "map" | "reduce"
	Placer      string  `json:"placer"`
	Pending     int     `json:"pending"`     // tasks the decision covers
	EstNet      float64 `json:"est_net"`     // T_aggr (map) / T_shuffle (reduce)
	EstCompute  float64 `json:"est_compute"` // T_map / T_red
	Est         float64 `json:"est"`         // EstNet + EstCompute
	TasksBySite []int   `json:"tasks_by_site"`
	Fallback    bool    `json:"fallback,omitempty"` // placer errored; fallback used
	Restamp     bool    `json:"restamp,omitempty"`  // forced re-solve after a drop
	Deadline    bool    `json:"deadline,omitempty"` // LP solve missed its deadline; greedy baseline used
	SolveNanos  int64   `json:"-"`
}

// TaskLaunch marks a task (or speculative copy, §8) taking a slot.
// Wait is the task's queueing delay: time since its stage became ready.
type TaskLaunch struct {
	T     float64 `json:"t"`
	Job   int     `json:"job"`
	Stage int     `json:"stage"`
	Task  int     `json:"task"`
	Site  int     `json:"site"`
	Copy  bool    `json:"copy,omitempty"`
	Wait  float64 `json:"wait"`
}

// TaskStart marks a task's input fetch completing and computation
// beginning.
type TaskStart struct {
	T     float64 `json:"t"`
	Job   int     `json:"job"`
	Stage int     `json:"stage"`
	Task  int     `json:"task"`
	Site  int     `json:"site"`
	Copy  bool    `json:"copy,omitempty"`
}

// TaskDone marks a task attempt completing. Redundant attempts (the
// losing copy of a speculated task, which runs out its slot) are
// marked; Rescued marks a speculative copy that beat its original.
type TaskDone struct {
	T         float64 `json:"t"`
	Job       int     `json:"job"`
	Stage     int     `json:"stage"`
	Task      int     `json:"task"`
	Site      int     `json:"site"`
	Copy      bool    `json:"copy,omitempty"`
	Redundant bool    `json:"redundant,omitempty"`
	Rescued   bool    `json:"rescued,omitempty"`
}

// FlowStart marks a WAN transfer entering the fluid-flow network.
type FlowStart struct {
	T     float64 `json:"t"`
	Flow  int64   `json:"flow"`
	Src   int     `json:"src"`
	Dst   int     `json:"dst"`
	Bytes float64 `json:"bytes"`
}

// FlowDone marks a WAN transfer draining. AvgRate is Bytes/Duration —
// the transfer's achieved max-min share over its lifetime.
type FlowDone struct {
	T        float64 `json:"t"`
	Flow     int64   `json:"flow"`
	Src      int     `json:"src"`
	Dst      int     `json:"dst"`
	Bytes    float64 `json:"bytes"`
	Duration float64 `json:"duration"`
	AvgRate  float64 `json:"avg_rate"`
}

// DropEvent marks a runtime capacity reduction at a site (§4.2).
type DropEvent struct {
	T        float64 `json:"t"`
	Site     int     `json:"site"`
	Frac     float64 `json:"frac"`
	NewSlots int     `json:"new_slots"`
}

// Fault records one applied injected fault (internal/fault). Which
// fields are meaningful depends on Fault: crash/rejoin/degrade/restore
// carry Site (and Frac for degrades), task_straggle carries
// Job/Stage/Factor, solve_stall carries Dur.
type Fault struct {
	T      float64 `json:"t"`
	Fault  string  `json:"fault"` // fault.Kind.String()
	Site   int     `json:"site,omitempty"`
	Job    int     `json:"job,omitempty"`
	Stage  int     `json:"stage,omitempty"`
	Frac   float64 `json:"frac,omitempty"`
	Factor float64 `json:"factor,omitempty"`
	Dur    float64 `json:"dur,omitempty"`
}

// StageRequeue marks a running stage pulled back to the ready queue
// because its site crashed; its tasks will re-execute elsewhere.
// SlotSeconds is the slot time the dead attempt consumed — re-execution
// waste, attributed to the job's tenant by fleet analytics.
type StageRequeue struct {
	T           float64 `json:"t"`
	Job         int     `json:"job"`
	Stage       int     `json:"stage"`
	Site        int     `json:"site"` // crashed site the stage held slots on
	Tasks       int     `json:"tasks"`
	SlotSeconds float64 `json:"slot_seconds,omitempty"`
}

// StageSpeculate marks speculative duplicates launched for a straggling
// stage on the fastest eligible site (first finish wins).
type StageSpeculate struct {
	T     float64 `json:"t"`
	Job   int     `json:"job"`
	Stage int     `json:"stage"`
	Site  int     `json:"site"` // site hosting the copies
	Tasks int     `json:"tasks"`
}

func (e JobArrival) Kind() string     { return "job_arrival" }
func (e JobDone) Kind() string        { return "job_done" }
func (e StageReady) Kind() string     { return "stage_ready" }
func (e StageDone) Kind() string      { return "stage_done" }
func (e StageLaunch) Kind() string    { return "stage_launch" }
func (e SchedInstance) Kind() string  { return "sched_instance" }
func (e Placement) Kind() string      { return "placement" }
func (e TaskLaunch) Kind() string     { return "task_launch" }
func (e TaskStart) Kind() string      { return "task_start" }
func (e TaskDone) Kind() string       { return "task_done" }
func (e FlowStart) Kind() string      { return "flow_start" }
func (e FlowDone) Kind() string       { return "flow_done" }
func (e DropEvent) Kind() string      { return "drop" }
func (e Fault) Kind() string          { return "fault" }
func (e StageRequeue) Kind() string   { return "stage_requeue" }
func (e StageSpeculate) Kind() string { return "stage_speculate" }

func (e JobArrival) Time() float64     { return e.T }
func (e JobDone) Time() float64        { return e.T }
func (e StageReady) Time() float64     { return e.T }
func (e StageDone) Time() float64      { return e.T }
func (e StageLaunch) Time() float64    { return e.T }
func (e SchedInstance) Time() float64  { return e.T }
func (e Placement) Time() float64      { return e.T }
func (e TaskLaunch) Time() float64     { return e.T }
func (e TaskStart) Time() float64      { return e.T }
func (e TaskDone) Time() float64       { return e.T }
func (e FlowStart) Time() float64      { return e.T }
func (e FlowDone) Time() float64       { return e.T }
func (e DropEvent) Time() float64      { return e.T }
func (e Fault) Time() float64          { return e.T }
func (e StageRequeue) Time() float64   { return e.T }
func (e StageSpeculate) Time() float64 { return e.T }

package engine

import (
	"bytes"
	"math/rand"
	"time"

	"tetrium/internal/obs"
	"tetrium/internal/place"
	"tetrium/internal/sched"
	"tetrium/internal/workload"
)

// JobPhase is a job's lifecycle state.
type JobPhase int

// Job phases. Every admitted job ends at JobDone.
const (
	// JobPending: admitted, no placement decision yet.
	JobPending JobPhase = iota
	// JobRunning: at least one placement decision made.
	JobRunning
	// JobDone: all stages complete.
	JobDone
)

func (p JobPhase) String() string {
	switch p {
	case JobPending:
		return "pending"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	default:
		return "phase?"
	}
}

type stagePhase int

const (
	stageWaiting stagePhase = iota // upstream deps incomplete
	stageReady                     // schedulable
	stageRunning                   // holding slots
	stageDone
)

func (p stagePhase) String() string {
	switch p {
	case stageWaiting:
		return "waiting"
	case stageReady:
		return "ready"
	case stageRunning:
		return "running"
	default:
		return "done"
	}
}

// StageStatus is one stage's view within a JobStatus.
type StageStatus struct {
	Index       int
	Kind        string
	Phase       string
	EstSeconds  float64 // LP-estimated remaining processing time
	TasksBySite []int   // current placement (nil before placement)
	SlotsHeld   []int   // slots held while running (nil otherwise)
}

// JobStatus is a point-in-time snapshot of one job.
type JobStatus struct {
	ID         int
	Name       string
	Tenant     string
	Phase      JobPhase
	StagesDone int
	NumStages  int
	Submitted  time.Time
	Placed     time.Time // zero until the first placement decision
	Finished   time.Time // zero until terminal
	WANBytes   float64
	Stages     []StageStatus // populated on detail reads only
}

// SiteStatus is one site's live capacity view.
type SiteStatus struct {
	Site      int
	Name      string
	Slots     int // current capacity (after updates)
	OrigSlots int // capacity at engine start
	FreeSlots int // currently unheld (≥ 0)
	UpBW      float64
	DownBW    float64
}

// ClusterStatus is the live cluster view.
type ClusterStatus struct {
	Sites      []SiteStatus
	ActiveJobs int
	MaxPending int
	Draining   bool
}

// SiteUpdate changes one site's capacity (§4.2). Zero-valued fields
// keep the current setting: Slots < 0 keeps slots, UpBW/DownBW ≤ 0 keep
// bandwidth. Frac > 0 is a convenience that overrides the absolute
// fields, dropping that fraction of the site's ORIGINAL capacity
// (slots and both bandwidths), like a sim.Drop.
type SiteUpdate struct {
	Site   int
	Slots  int
	UpBW   float64
	DownBW float64
	Frac   float64
}

type jobState struct {
	id         int
	name       string
	tenant     string // attribution key; never empty ("default" fallback)
	spec       *workload.Job
	phase      JobPhase
	stages     []*stageRun
	stagesDone int
	numStages  int // len(stages), except for journal-restored done jobs
	submitted  time.Time
	placed     time.Time
	finished   time.Time
	wanBytes   float64
	remTasks   int
	journaled  bool // first placement written to the journal

	// Incremental-scheduling index state (index.go).
	orderPos   int  // position in s.order; arrival-order sort key
	readyCount int  // stages currently in stageReady
	inReadyIdx bool // member of s.readyJobs
}

func (j *jobState) terminal() bool { return j.phase == JobDone }

type stageRun struct {
	idx  int
	spec *workload.Stage
	job  *jobState // back-pointer for the site→stage index

	phase      stagePhase
	placed     bool // placement computed (tasks/est valid)
	solving    bool // async LP solve in flight on the worker pool
	staleDrops int  // consecutive solves invalidated by cluster updates

	tasks      []int   // per-site task assignment (the paper's f)
	est        float64 // LP estimate of stage processing time, seconds
	estNet     float64
	estCompute float64
	wan        float64 // cross-site bytes this placement moves

	held      []int // slots held per site while running
	heldTotal int
	gen       int // invalidates stale completion timers

	// Slot-second accounting (fleet analytics). slotSec integrates
	// (held + speculative) slots over wall time, cumulative across
	// attempts; slotT0 marks when the current holding level began;
	// attemptSlot0 is slotSec at the current attempt's launch, so a
	// crash requeue can report the dead attempt's waste.
	slotSec      float64
	slotT0       float64
	attemptSlot0 float64

	// Failure domain (failure.go).
	attempt    int           // execution attempt; bumped on crash requeue
	launchedAt float64       // s.now() at launch
	expectWall time.Duration // un-straggled wall duration of the current run
	specActive bool          // a speculative duplicate is running
	specSite   int           // site hosting the duplicate
	specSlots  int           // slots the duplicate holds
	solveSeq   int           // latest async solve attempt (deadline retry guard)
	deadlineFB bool          // current placement is a solve-deadline fallback

	interBySite []float64 // reduce input location, from upstream outputs
	outBySite   []float64 // where this stage's output landed

	// Incremental §4.2 state (index.go, replace.go).
	dataSites []bool // sites whose capacity perturbs this stage's LP input
	idxSites  []bool // current stageSites membership

	// warm carries the simplex basis of this stage's latest placement so
	// re-solves (§4.2 re-placements, deadline retries) skip phase 1.
	// Loop-owned: async dispatches hand the pool a Clone and install it
	// back on commit, so the loop's copy is never written concurrently.
	warm *place.WarmState
}

type state struct {
	e *Engine
	n int

	capSlots []int // current per-site capacity (after updates)
	free     []int // capacity minus held slots (may dip negative after a drop)
	upBW     []float64
	downBW   []float64

	jobs        map[int]*jobState
	order       []*jobState
	activeCount int
	nextID      int
	idemKeys    map[string]int // client idempotency key → job ID (submit dedup)

	draining  bool
	drainDone []chan struct{}

	rec           *obs.Recorder
	events        []obs.Event
	eventsDropped int64

	todo        []func()
	schedQueued bool
	instSeq     int

	resGen int // bumped on every cluster update; stale-solve guard

	// Incremental scheduling indexes (index.go): the ready-job set
	// sorted by arrival, the running-stage set, and the site→stage
	// inverted index over placed live stages, plus its flat union.
	readyJobs     []*jobState
	runningStages map[*stageRun]struct{}
	stageSites    []map[*stageRun]struct{}
	placedLive    map[*stageRun]struct{}
	touchScratch  []bool

	// Event-loop occupancy instrumentation (engine.go loop): the gauge
	// tracks the max busy interval ever; the histogram samples only
	// intervals ≥ loopStallFloor so steady sub-stall traffic does not
	// grow the sample buffer.
	loopStallMaxNs float64
	gLoopStall     *obs.Gauge
	hLoopStall     *obs.Histogram

	// schedule() scratch, reused across passes so a steady-state pass
	// allocates nothing.
	candScratch  []schedCand
	stageScratch []*stageRun

	// Failure domain (failure.go).
	restoring  bool        // journal replay in progress; skip re-journaling
	solveCount int         // async solves dispatched (drives injected stalls)
	specRatios []float64   // observed actual/estimated stage-duration ratios
	doneWall   []time.Time // recent completion wall times (drain-rate window)
	rng        *rand.Rand  // retry-backoff jitter (loop-owned)
}

func newState(e *Engine) *state {
	cl := e.cfg.Cluster
	rec := obs.NewRecorder()
	rec.KeepEvents = false // the state keeps its own bounded buffer
	n := cl.N()
	sites := make([]map[*stageRun]struct{}, n)
	for i := range sites {
		sites[i] = make(map[*stageRun]struct{})
	}
	return &state{
		e:             e,
		n:             n,
		capSlots:      cl.Slots(),
		free:          cl.Slots(),
		upBW:          cl.UpBW(),
		downBW:        cl.DownBW(),
		jobs:          make(map[int]*jobState),
		idemKeys:      make(map[string]int),
		rec:           rec,
		rng:           rand.New(rand.NewSource(1)), // jitter only; determinism beats entropy
		runningStages: make(map[*stageRun]struct{}),
		stageSites:    sites,
		placedLive:    make(map[*stageRun]struct{}),
		touchScratch:  make([]bool, n),
		gLoopStall:    rec.Registry().Gauge("engine.loop_stall_max_ns"),
		hLoopStall:    rec.Registry().Histogram("engine.loop_stall_ns", 1e5, 2, 24),
	}
}

// loopStallFloor is the event-loop busy interval below which occupancy
// samples are not retained: the gauge still tracks the max, but the
// histogram only keeps genuinely stalling intervals so per-dequeue
// observation cannot grow the sample buffer without bound.
const loopStallFloor = 100 * time.Microsecond

// noteLoopStall records one event-loop busy interval (engine.go loop).
func (s *state) noteLoopStall(d time.Duration) {
	ns := float64(d.Nanoseconds())
	if ns > s.loopStallMaxNs {
		s.loopStallMaxNs = ns
		s.gLoopStall.Set(ns)
		s.e.stallMax.Store(d.Nanoseconds())
	}
	if d >= loopStallFloor {
		s.hLoopStall.Observe(ns)
	}
}

// notePanic records one contained panic (engine.go runGuarded, solve
// pool). State mid-panic may be inconsistent — that is the supervisor's
// restart decision to make; here the damage is counted, traced, and the
// journal's consistent mirror is snapshotted to disk so a restart
// recovers the freshest durable state.
func (s *state) notePanic(origin string, r any) {
	s.e.panics.Add(1)
	s.rec.Registry().Counter("engine.panics_recovered").Inc()
	s.emit(obs.Fault{T: s.now(), Fault: "panic_recovered_" + origin})
	if j := s.e.cfg.Journal; j != nil {
		if err := j.Snapshot(); err != nil {
			s.rec.Registry().Counter("engine.journal_errors").Inc()
		}
	}
}

func (s *state) now() float64 { return s.e.now() }

// emit feeds the metrics registry (via the Recorder), the fleet
// analytics store when configured, and the bounded debug buffer.
func (s *state) emit(ev obs.Event) {
	s.rec.Emit(ev)
	s.forwardAnalytics(ev)
	if cap := s.e.cfg.EventCap; len(s.events) >= cap {
		drop := cap/4 + 1
		if drop > len(s.events) {
			drop = len(s.events)
		}
		kept := copy(s.events, s.events[drop:])
		s.events = s.events[:kept]
		s.eventsDropped += int64(drop)
	}
	s.events = append(s.events, ev)
}

// forwardAnalytics hands an already-boxed event to the fleet store.
// Kept as its own method so the alloc-guard test can pin the disabled
// path at zero allocations (one nil interface check, nothing built).
func (s *state) forwardAnalytics(ev obs.Event) {
	if f := s.e.cfg.Analytics; f != nil {
		f.Emit(ev)
	}
}

// accrueSlots folds the elapsed slot-holding interval of a running
// stage into its cumulative slot-second counter. Called before any
// transition that changes how many slots the stage holds.
func (s *state) accrueSlots(sr *stageRun) {
	if sr.phase != stageRunning {
		return
	}
	now := s.now()
	held := sr.heldTotal
	if sr.specActive {
		held += sr.specSlots
	}
	sr.slotSec += float64(held) * (now - sr.slotT0)
	sr.slotT0 = now
}

// scheduleSoon queues one coalesced scheduling pass on the todo queue.
func (s *state) scheduleSoon() {
	if s.schedQueued {
		return
	}
	s.schedQueued = true
	s.todo = append(s.todo, func() {
		s.schedQueued = false
		s.schedule()
	})
}

// Admission ----------------------------------------------------------------

func (s *state) submit(spec *workload.Job, idemKey string) (int, bool, error) {
	if idemKey != "" {
		// Dedup wins over every other admission gate: a replayed key is
		// not new work, so it succeeds even while draining or full.
		if id, ok := s.idemKeys[idemKey]; ok {
			s.rec.Registry().Counter("engine.submit_deduped").Inc()
			return id, true, nil
		}
	}
	if s.draining {
		return 0, false, ErrDraining
	}
	if s.activeCount >= s.e.cfg.MaxPending {
		s.rec.Registry().Counter("engine.rejected").Inc()
		return 0, false, ErrQueueFull
	}
	id := s.nextID
	tenant := spec.Tenant
	if tenant == "" {
		tenant = "default"
	}
	if j := s.e.cfg.Journal; j != nil {
		// The admission is durable before it is acknowledged: a journal
		// write failure rejects the job rather than accepting work a
		// restart would silently lose.
		if err := j.AdmitIdem(id, time.Now().UnixMilli(), tenant, idemKey, spec); err != nil {
			s.rec.Registry().Counter("engine.journal_errors").Inc()
			return 0, false, err
		}
	}
	if idemKey != "" {
		s.idemKeys[idemKey] = id
	}
	s.nextID++
	js := &jobState{
		id:        id,
		name:      spec.Name,
		tenant:    tenant,
		spec:      spec,
		submitted: time.Now(),
	}
	total := 0
	for si, st := range spec.Stages {
		sr := &stageRun{idx: si, spec: st, job: js, interBySite: make([]float64, s.n)}
		if st.Kind == workload.MapStage {
			sr.phase = stageReady
			sr.dataSites = s.stageDataSites(sr)
		}
		js.stages = append(js.stages, sr)
		total += len(st.Tasks)
	}
	js.remTasks = total
	js.numStages = len(js.stages)
	s.jobs[id] = js
	js.orderPos = len(s.order)
	s.order = append(s.order, js)
	s.activeCount++
	s.rec.Registry().Gauge("engine.pending").Set(float64(s.activeCount))
	t := s.now()
	s.emit(obs.JobArrival{T: t, Job: id, Name: js.name, Tenant: js.tenant, Stages: len(js.stages), Tasks: total})
	for _, sr := range js.stages {
		if sr.phase == stageReady {
			s.noteStageReady(js)
			s.emit(obs.StageReady{T: t, Job: id, Stage: sr.idx, Tasks: len(sr.spec.Tasks)})
		}
	}
	s.scheduleSoon()
	return id, false, nil
}

// Scheduling instance (admit → order → place → dispatch) -------------------

// schedCand is one candidate job of a scheduling pass: its ready
// stages live in s.stageScratch[lo:hi] (an arena shared across
// candidates so a steady-state pass allocates nothing).
type schedCand struct {
	js     *jobState
	lo, hi int
}

func (s *state) schedule() {
	// Indexed early-outs: with no ready stage, or no free slot, the
	// pass has nothing to place or launch — exactly the situations the
	// old code discovered by scanning all of s.order. Both return
	// before any allocation, so a saturated steady-state pass is O(1)
	// in jobs and allocation-free (the alloc-guard test pins this).
	if len(s.readyJobs) == 0 {
		return
	}
	totalFree := 0
	for _, f := range s.free {
		if f > 0 {
			totalFree += f
		}
	}
	if totalFree <= 0 {
		return
	}
	started := time.Now()
	s.instSeq++

	// s.readyJobs is sorted by arrival, so candidates appear in the
	// same order the full s.order scan produced.
	cands := s.candScratch[:0]
	arena := s.stageScratch[:0]
	for _, js := range s.readyJobs {
		lo := len(arena)
		for _, sr := range js.stages {
			if sr.phase == stageReady {
				arena = append(arena, sr)
			}
		}
		cands = append(cands, schedCand{js: js, lo: lo, hi: len(arena)})
	}
	freeAtStart := totalFree

	launched := 0
	solves := 0
	infos := make([]sched.JobInfo, len(cands))
	remTasks := make([]int, len(cands))
	for i, c := range cands {
		est := 0.0
		for _, sr := range arena[c.lo:c.hi] {
			if !sr.placed {
				solves += s.ensurePlacement(c.js, sr, false)
			}
			if sr.est > est {
				est = sr.est
			}
		}
		infos[i] = sched.JobInfo{
			ID:              c.js.id,
			RemainingStages: len(c.js.stages) - c.js.stagesDone,
			EstStageTime:    est,
			RemainingTasks:  c.js.remTasks,
		}
		remTasks[i] = c.js.remTasks
	}
	orderIdx := sched.Order(s.e.cfg.Policy, infos)
	shares := sched.FairShares(totalFree, remTasks)
	orderIDs := make([]int, len(orderIdx))
	for i, k := range orderIdx {
		orderIDs[i] = cands[k].js.id
	}
	for _, k := range orderIdx {
		if totalFree <= 0 {
			break
		}
		budget := sched.Cap(s.e.cfg.Eps, totalFree, shares, k)
		if budget <= 0 {
			continue
		}
		c := cands[k]
		for _, sr := range arena[c.lo:c.hi] {
			if budget <= 0 {
				break
			}
			n := s.launchStage(c.js, sr, &budget)
			launched += n
			totalFree -= n
		}
	}
	s.candScratch, s.stageScratch = cands[:0], arena[:0]
	s.emit(obs.SchedInstance{
		T: s.now(), Seq: s.instSeq, Considered: len(cands),
		Order: orderIDs, FreeSlots: freeAtStart, Launched: launched,
		LPSolves:  solves,
		WallNanos: time.Since(started).Nanoseconds(),
	})
}

// placeRequest bundles the inputs of one placement solve so the solve
// itself can run off the loop against a resource snapshot.
type placeRequest struct {
	kind string // "map" | "reduce"
	mreq place.MapRequest
	rreq place.ReduceRequest
}

// placeResult is the outcome of one placement solve.
type placeResult struct {
	tasks      []int
	estNet     float64
	estCompute float64
	wan        float64
}

func (pr placeRequest) numTasks() int {
	if pr.kind == "map" {
		return pr.mreq.NumTasks
	}
	return pr.rreq.NumTasks
}

// setWarm points the request at a warm-start state for the placer to
// use. A warm start changes solve speed, never the placement.
func (pr *placeRequest) setWarm(w *place.WarmState) {
	if pr.kind == "map" {
		pr.mreq.Warm = w
	} else {
		pr.rreq.Warm = w
	}
}

// buildRequest snapshots a stage's placement inputs. The data vectors
// are copied: the request outlives this loop iteration when the solve
// is dispatched to the worker pool.
func (s *state) buildRequest(sr *stageRun) placeRequest {
	if sr.spec.Kind == workload.MapStage {
		input := make([]float64, s.n)
		for _, t := range sr.spec.Tasks {
			input[t.Src] += t.Input
		}
		return placeRequest{kind: "map", mreq: place.MapRequest{
			InputBySite: input,
			NumTasks:    len(sr.spec.Tasks),
			TaskCompute: sr.spec.EstCompute,
			WANBudget:   place.WANBudget(s.e.cfg.Rho, place.MapBudget, input),
			OutputBytes: sr.spec.TotalOutput(),
		}}
	}
	inter := append([]float64(nil), sr.interBySite...)
	return placeRequest{kind: "reduce", rreq: place.ReduceRequest{
		InterBySite: inter,
		NumTasks:    len(sr.spec.Tasks),
		TaskCompute: sr.spec.EstCompute,
		WANBudget:   place.WANBudget(s.e.cfg.Rho, place.ReduceBudget, inter),
		OutputBytes: sr.spec.TotalOutput(),
	}}
}

// solveRequest runs one placement LP. It touches no loop state — only
// the given placer, resource snapshot, and request — so it is safe on a
// pool worker. The bool result reports the fallback path (placer error).
func solveRequest(placer place.Placer, res place.Resources, pr placeRequest) (placeResult, bool) {
	if pr.kind == "map" {
		mp, err := placer.PlaceMap(res, pr.mreq)
		if err != nil {
			return fallbackResult(res.Slots, pr.mreq.NumTasks, pr.mreq.TaskCompute), true
		}
		quota := make([]int, len(res.Slots))
		for x := range mp.Tasks {
			for y, c := range mp.Tasks[x] {
				quota[y] += c
			}
		}
		return placeResult{
			tasks: quota, estNet: mp.TAggr, estCompute: mp.TMap,
			wan: mp.WANBytes(pr.mreq.InputBySite),
		}, false
	}
	rp, err := placer.PlaceReduce(res, pr.rreq)
	if err != nil {
		return fallbackResult(res.Slots, pr.rreq.NumTasks, pr.rreq.TaskCompute), true
	}
	return placeResult{
		tasks: append([]int(nil), rp.Tasks...), estNet: rp.TShufl, estCompute: rp.TRed,
		wan: rp.WANBytes(pr.rreq.InterBySite),
	}, false
}

func fallbackResult(slots []int, numTasks int, taskCompute float64) placeResult {
	return placeResult{
		tasks:      capacityProportional(slots, numTasks),
		estCompute: fallbackEst(numTasks, taskCompute, slots),
	}
}

// maxStaleDrops is how many consecutive generation-guard drops a stage
// tolerates before its next solve runs synchronously on the loop.
const maxStaleDrops = 2

// applyPlacement commits a solve result to the stage and emits the
// Placement event. Always runs on the loop.
func (s *state) applyPlacement(js *jobState, sr *stageRun, pr placeRequest, r placeResult, fallback, restamp, deadline bool, solveNanos int64) {
	sr.staleDrops = 0
	sr.deadlineFB = deadline
	sr.tasks = append([]int(nil), r.tasks...)
	sr.estNet, sr.estCompute = r.estNet, r.estCompute
	sr.wan = r.wan
	sr.est = r.estNet + r.estCompute
	sr.placed = true
	s.indexStage(sr)
	s.emit(obs.Placement{
		T: s.now(), Job: js.id, Stage: sr.idx, StageKind: pr.kind,
		Placer: s.e.cfg.Placer.Name(), Pending: pr.numTasks(),
		EstNet: sr.estNet, EstCompute: sr.estCompute, Est: sr.est,
		TasksBySite: append([]int(nil), sr.tasks...),
		Fallback:    fallback, Restamp: restamp, Deadline: deadline,
		SolveNanos: solveNanos,
	})
	if js.placed.IsZero() {
		js.placed = time.Now()
		if js.phase == JobPending {
			js.phase = JobRunning
		}
		s.rec.Registry().Histogram("engine.submit_to_place_s", 1e-6, 4, 16).
			Observe(js.placed.Sub(js.submitted).Seconds())
		if j := s.e.cfg.Journal; j != nil && !s.restoring && !js.journaled {
			js.journaled = true
			if err := j.Place(js.id, sr.idx, time.Now().UnixMilli()); err != nil {
				s.rec.Registry().Counter("engine.journal_errors").Inc()
			}
		}
	}
}

// ensurePlacement (re)computes a stage's placement against current
// capacities. There is no memo: every call solves the LP against the
// capacities of the moment. The solve is dispatched to the worker pool
// with a snapshot of the capacities and the current resource
// generation — the loop never blocks on a solve — and the placement is
// committed when the solve re-enters the loop, unless the generation
// moved (a §4.2 update landed mid-solve), in which case the stale
// result is dropped and scheduling re-triggered.
//
// force re-solves even when a placement exists (the §4.2 re-place
// path); that path stays synchronous — updateCluster must report how
// many stages it re-placed — and marks the emitted event Restamp.
// Returns the number of LP solves started (0 or 1).
func (s *state) ensurePlacement(js *jobState, sr *stageRun, force bool) int {
	if (sr.placed && !force) || sr.solving {
		return 0
	}
	pr := s.buildRequest(sr)
	// Synchronous solves: the §4.2 re-place path (force), and stages
	// whose async solves keep getting invalidated by a rapid stream of
	// cluster updates — solving on the loop is the only way to guarantee
	// progress against the current capacities, so bound the starvation.
	if force || sr.staleDrops >= maxStaleDrops {
		t0 := time.Now()
		res := place.Resources{Slots: s.capSlots, UpBW: s.upBW, DownBW: s.downBW}
		// Loop-owned, so the stage's warm state is used in place: a §4.2
		// re-solve is the exact same stage shape against drifted
		// capacities — the warm start's best case.
		if sr.warm == nil {
			sr.warm = place.NewWarmState()
		}
		pr.setWarm(sr.warm)
		r, fb := solveRequest(s.e.cfg.Placer, res, pr)
		s.noteWarmStats(sr.warm)
		s.applyPlacement(js, sr, pr, r, fb, force, false, time.Since(t0).Nanoseconds())
		return 1
	}
	sr.solving = true
	sr.solveSeq++
	s.dispatchSolve(js, sr, pr, 0)
	return 1
}

// noteWarmStats drains a warm state's solve-outcome counters into the
// registry. Loop-only.
func (s *state) noteWarmStats(w *place.WarmState) {
	started, fallback := w.TakeStats()
	if started > 0 {
		s.rec.Registry().Counter("engine.solves_warm_started").Add(float64(started))
	}
	if fallback > 0 {
		s.rec.Registry().Counter("engine.solves_warm_fallback").Add(float64(fallback))
	}
}

// commitPlacement lands an off-loop solve back on the loop. seq guards
// against superseded solve attempts (deadline retries, failure.go).
func (s *state) commitPlacement(js *jobState, sr *stageRun, pr placeRequest, gen, seq int, r placeResult, fallback bool, nanos int64) {
	if seq != sr.solveSeq {
		return // a retry superseded this attempt
	}
	sr.solving = false
	if js.terminal() {
		return
	}
	if sr.placed {
		// A solve-deadline fallback placed the stage while this LP was
		// still running: upgrade to the real solution if the stage has
		// not launched yet against current capacities.
		if !(sr.deadlineFB && sr.phase == stageReady && gen == s.resGen) {
			return
		}
		s.rec.Registry().Counter("engine.solves_late_upgrades").Inc()
	}
	if gen != s.resGen {
		// Capacities changed while the LP was solving: the result is
		// against a stale snapshot. Drop it; the scheduling pass below
		// re-dispatches against the fresh capacities (synchronously,
		// after maxStaleDrops consecutive invalidations).
		sr.staleDrops++
		s.rec.Registry().Counter("engine.solves_stale_dropped").Inc()
		s.scheduleSoon()
		return
	}
	s.applyPlacement(js, sr, pr, r, fallback, false, false, nanos)
	s.scheduleSoon()
}

// capacityProportional spreads count tasks over sites proportionally to
// capacity — the placement fallback when the placer errors or its
// chosen sites have lost all capacity.
func capacityProportional(slots []int, count int) []int {
	out := make([]int, len(slots))
	totalCap := 0
	for _, c := range slots {
		totalCap += c
	}
	if totalCap == 0 {
		out[0] = count
		return out
	}
	assigned := 0
	bestIdx, bestCap := 0, -1
	for x, c := range slots {
		out[x] = count * c / totalCap
		assigned += out[x]
		if c > bestCap {
			bestIdx, bestCap = x, c
		}
	}
	out[bestIdx] += count - assigned
	return out
}

// fallbackEst is a wave-count compute estimate used when the LP fails.
func fallbackEst(numTasks int, taskCompute float64, capSlots []int) float64 {
	total := 0
	for _, c := range capSlots {
		total += c
	}
	if total == 0 {
		total = 1
	}
	waves := (numTasks + total - 1) / total
	return float64(waves) * taskCompute
}

// launchStage dispatches a ready, placed stage: it takes the slots the
// placement demands (bounded by free capacity and the job's ε-fairness
// budget) and arranges completion after the LP-estimated duration,
// stretched when fewer slots than the full-capacity demand were
// available (extra waves). Returns slots taken.
func (s *state) launchStage(js *jobState, sr *stageRun, budget *int) int {
	if *budget <= 0 || !sr.placed {
		return 0
	}
	alloc, total := s.allocate(sr.tasks, *budget)
	if total == 0 {
		// The placement's sites may have lost all capacity since the
		// solve (§4.2); retarget proportionally to surviving capacity
		// and retry once. The old estimate described the dead sites, so
		// restamp it with the wave-count estimate for the new ones.
		if !s.anyCapacity(sr.tasks) {
			sr.tasks = capacityProportional(s.capSlots, len(sr.spec.Tasks))
			sr.estNet = 0
			sr.estCompute = fallbackEst(len(sr.spec.Tasks), sr.spec.EstCompute, s.capSlots)
			sr.est = sr.estCompute
			alloc, total = s.allocate(sr.tasks, *budget)
		}
		if total == 0 {
			return 0
		}
	}
	*budget -= total
	ideal := 0
	for x, t := range sr.tasks {
		ideal += minInt(t, s.capSlots[x])
	}
	for x, a := range alloc {
		s.free[x] -= a
	}
	sr.held = alloc
	sr.heldTotal = total
	sr.phase = stageRunning
	s.noteStageUnready(js)
	s.indexStage(sr)
	sr.gen++
	gen := sr.gen

	js.wanBytes += sr.wan
	s.rec.Registry().Counter("engine.wan_bytes").Add(sr.wan)
	s.rec.Registry().Counter("engine.stages_launched").Inc()

	dur := sr.est
	if ideal > total && total > 0 {
		dur *= float64(ideal) / float64(total)
	}
	wall := time.Duration(dur * s.e.cfg.TimeScale * float64(time.Second))
	sr.launchedAt = s.now()
	sr.slotT0 = sr.launchedAt
	sr.attemptSlot0 = sr.slotSec
	sr.expectWall = wall
	if s.e.cfg.Analytics != nil {
		// Gated on analytics: the event (and its per-site copy) exists
		// for windowed usage attribution only, and building it on every
		// launch would put allocations back on the no-analytics path.
		s.emit(obs.StageLaunch{
			T: sr.launchedAt, Job: js.id, Stage: sr.idx,
			Tasks: len(sr.spec.Tasks), Slots: total,
			SlotsBySite: append([]int(nil), alloc...),
			Est:         sr.est, WANBytes: sr.wan,
		})
	}
	if wall > 0 {
		// Injected straggle: this stage attempt runs factor× slower than
		// its estimate (a fresh attempt after a crash requeue is a fresh
		// draw). Speculation, if enabled, is what claws the time back.
		if inj := s.e.cfg.Faults; inj != nil {
			if factor := inj.StraggleFactor(js.id, sr.idx, 0, sr.attempt); factor > 1 {
				wall = time.Duration(float64(wall) * factor)
				s.emit(obs.Fault{
					T: sr.launchedAt, Fault: "task_straggle",
					Job: js.id, Stage: sr.idx, Factor: factor,
				})
			}
		}
		s.scheduleSpecCheck(js, sr, gen)
	}
	if s.e.cfg.TimeScale <= 0 || wall <= 0 {
		s.todo = append(s.todo, func() { s.completeStage(js, sr, gen) })
	} else {
		s.e.afterFunc(wall, func() {
			s.e.inject(func() { s.completeStage(js, sr, gen) })
		})
	}
	return total
}

// allocate takes min(want, free, budget) slots site-by-site.
func (s *state) allocate(want []int, budget int) ([]int, int) {
	alloc := make([]int, s.n)
	total := 0
	for x, w := range want {
		if total >= budget {
			break
		}
		f := s.free[x]
		if f <= 0 || w <= 0 {
			continue
		}
		a := minInt(w, f)
		if total+a > budget {
			a = budget - total
		}
		alloc[x] = a
		total += a
	}
	return alloc, total
}

// anyCapacity reports whether any site the assignment uses still has
// capacity.
func (s *state) anyCapacity(tasks []int) bool {
	for x, t := range tasks {
		if t > 0 && s.capSlots[x] > 0 {
			return true
		}
	}
	return false
}

// Completion ----------------------------------------------------------------

// completeStage handles the original attempt finishing; the speculative
// path enters through specDone (failure.go). Both converge here.
func (s *state) completeStage(js *jobState, sr *stageRun, gen int) {
	s.stageFinished(js, sr, gen, false)
}

func (s *state) stageFinished(js *jobState, sr *stageRun, gen int, byCopy bool) {
	if sr.phase != stageRunning || sr.gen != gen {
		return
	}
	s.accrueSlots(sr)
	if !byCopy {
		s.observeStageRatio(sr)
	}
	for x, h := range sr.held {
		s.free[x] += h
	}
	sr.held = nil
	sr.heldTotal = 0
	sr.phase = stageDone
	s.indexStage(sr)
	specSite := sr.specSite
	s.cancelSpec(sr) // winner or loser, the duplicate's slots come back

	// The stage's output lands where its tasks ran — or entirely at the
	// duplicate's site when the copy won the race.
	out := sr.spec.TotalOutput()
	sr.outBySite = make([]float64, s.n)
	taskTotal := 0
	for _, t := range sr.tasks {
		taskTotal += t
	}
	switch {
	case byCopy:
		sr.outBySite[specSite] = out
	case taskTotal > 0:
		for x, t := range sr.tasks {
			sr.outBySite[x] = out * float64(t) / float64(taskTotal)
		}
	case s.n > 0:
		sr.outBySite[0] = out
	}

	t := s.now()
	if byCopy {
		s.rec.Registry().Counter("engine.stages_rescued").Inc()
	}
	s.emit(obs.StageDone{T: t, Job: js.id, Stage: sr.idx, Rescued: byCopy, SlotSeconds: sr.slotSec})
	js.stagesDone++
	js.remTasks -= len(sr.spec.Tasks)
	if js.stagesDone == len(js.stages) {
		s.finishJob(js, t)
	} else {
		s.wakeDownstream(js, t)
	}
	s.scheduleSoon()
}

func (s *state) wakeDownstream(js *jobState, t float64) {
	for _, down := range js.stages {
		if down.phase != stageWaiting {
			continue
		}
		ready := true
		for _, d := range down.spec.Deps {
			if js.stages[d].phase != stageDone {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		for x := 0; x < s.n; x++ {
			sum := 0.0
			for _, d := range down.spec.Deps {
				sum += js.stages[d].outBySite[x]
			}
			down.interBySite[x] = sum
		}
		down.phase = stageReady
		down.dataSites = s.stageDataSites(down)
		s.noteStageReady(js)
		s.emit(obs.StageReady{T: t, Job: js.id, Stage: down.idx, Tasks: len(down.spec.Tasks)})
	}
}

func (s *state) finishJob(js *jobState, t float64) {
	js.phase = JobDone
	js.finished = time.Now()
	s.activeCount--
	s.rec.Registry().Gauge("engine.pending").Set(float64(s.activeCount))
	s.emit(obs.JobDone{
		T: t, Job: js.id,
		Response: js.finished.Sub(js.submitted).Seconds(),
		WANBytes: js.wanBytes,
	})
	if j := s.e.cfg.Journal; j != nil && !s.restoring {
		if err := j.Done(js.id, js.finished.UnixMilli(), js.tenant, js.name, js.numStages, js.wanBytes); err != nil {
			s.rec.Registry().Counter("engine.journal_errors").Inc()
		}
	}
	s.doneWall = append(s.doneWall, js.finished)
	if len(s.doneWall) > drainRateWindow {
		s.doneWall = s.doneWall[len(s.doneWall)-drainRateWindow:]
	}
	if s.draining && s.activeCount == 0 {
		for _, ch := range s.drainDone {
			close(ch)
		}
		s.drainDone = nil
	}
}

// Resource dynamics (§4.2) --------------------------------------------------

func (s *state) updateCluster(ups []SiteUpdate) int {
	t := s.now()
	affected := make([]int, 0, len(ups))
	grew := false
	for _, u := range ups {
		orig := s.e.cfg.Cluster.Sites[u.Site]
		newSlots, newUp, newDown := u.Slots, u.UpBW, u.DownBW
		if u.Frac > 0 {
			newSlots = int(float64(orig.Slots) * (1 - u.Frac))
			newUp = orig.UpBW * (1 - u.Frac)
			newDown = orig.DownBW * (1 - u.Frac)
		}
		changed := false
		if newSlots >= 0 {
			delta := s.capSlots[u.Site] - newSlots
			if delta != 0 {
				changed = true
				grew = grew || delta < 0
			}
			s.capSlots[u.Site] = newSlots
			s.free[u.Site] -= delta // may dip negative until running stages drain
		}
		const minBW = 1.0 // keep placement LPs away from zero bandwidth
		if newUp > 0 {
			v := maxFloat(newUp, minBW)
			if v != s.upBW[u.Site] {
				changed = true
				grew = grew || v > s.upBW[u.Site]
			}
			s.upBW[u.Site] = v
		}
		if newDown > 0 {
			v := maxFloat(newDown, minBW)
			if v != s.downBW[u.Site] {
				changed = true
				grew = grew || v > s.downBW[u.Site]
			}
			s.downBW[u.Site] = v
		}
		if changed {
			affected = append(affected, u.Site)
		}
		frac := 0.0
		if orig.Slots > 0 {
			frac = 1 - float64(s.capSlots[u.Site])/float64(orig.Slots)
		}
		s.emit(obs.DropEvent{T: t, Site: u.Site, Frac: frac, NewSlots: s.capSlots[u.Site]})
	}
	s.rec.Registry().Counter("engine.cluster_updates").Inc()
	s.resGen++ // invalidate solves in flight against the old capacities
	replaced := s.replacePlacements(affected, grew)
	s.scheduleSoon()
	return replaced
}

// Snapshots ------------------------------------------------------------------

func (s *state) snapshot(js *jobState, detail bool) JobStatus {
	st := JobStatus{
		ID:         js.id,
		Name:       js.name,
		Tenant:     js.tenant,
		Phase:      js.phase,
		StagesDone: js.stagesDone,
		NumStages:  js.numStages,
		Submitted:  js.submitted,
		Placed:     js.placed,
		Finished:   js.finished,
		WANBytes:   js.wanBytes,
	}
	if detail {
		st.Stages = make([]StageStatus, len(js.stages))
		for i, sr := range js.stages {
			ss := StageStatus{
				Index: sr.idx,
				Kind:  sr.spec.Kind.String(),
				Phase: sr.phase.String(),
			}
			if sr.placed {
				ss.EstSeconds = sr.est
				ss.TasksBySite = append([]int(nil), sr.tasks...)
			}
			if sr.phase == stageRunning {
				ss.SlotsHeld = append([]int(nil), sr.held...)
			}
			st.Stages[i] = ss
		}
	}
	return st
}

func (s *state) clusterStatus() ClusterStatus {
	out := ClusterStatus{
		ActiveJobs: s.activeCount,
		MaxPending: s.e.cfg.MaxPending,
		Draining:   s.draining,
	}
	for i, site := range s.e.cfg.Cluster.Sites {
		free := s.free[i]
		if free < 0 {
			free = 0
		}
		out.Sites = append(out.Sites, SiteStatus{
			Site: i, Name: site.Name,
			Slots: s.capSlots[i], OrigSlots: site.Slots, FreeSlots: free,
			UpBW: s.upBW[i], DownBW: s.downBW[i],
		})
	}
	return out
}

// Rendering ------------------------------------------------------------------

func renderText(reg *obs.Registry) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := reg.WriteText(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func renderProm(reg *obs.Registry) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := reg.WritePrometheus(&buf, "tetrium"); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Package fleet is the analytics subsystem over tetrium-serve's
// observability exhaust: it ingests obs events (live from the engine's
// event loop, or offline from a saved JSONL trace) and journal state
// into an in-memory columnar store with bounded retention, and answers
// the capacity/fairness questions the raw streams cannot — which tenant
// is hogging slot-seconds or WAN bytes, whether speculation pays for
// itself, whether LP estimate accuracy is drifting (the Fig. 12 axis as
// a live query), and how per-site slot/WAN usage trends over time.
//
// Ingestion contract: the same event stream produces the same aggregate
// totals regardless of path. The engine computes slot-seconds once and
// serializes them into StageDone/StageRequeue events; the store only
// sums what events carry, in arrival order, so a live store and an
// offline re-ingestion of the exported trace agree bit-for-bit
// (encoding/json round-trips float64 exactly). Journal state is folded
// in after events and deduplicated by job ID, covering only jobs whose
// events were lost.
//
// Concurrency: one mutex. The engine loop writes (Emit), HTTP readers
// snapshot under the same lock; every critical section is O(small).
package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"tetrium/internal/journal"
	"tetrium/internal/metrics"
	"tetrium/internal/obs"
)

// Config parameterizes a Store. Zero values mean defaults.
type Config struct {
	// MaxJobs bounds retained per-job rows; when exceeded, the oldest
	// completed rows are evicted (their contribution survives in the
	// per-tenant aggregates). Default 8192.
	MaxJobs int
	// Window is the usage-trend bucket width in event-time seconds.
	// Default 60.
	Window float64
	// MaxWindows bounds retained usage buckets. Default 240.
	MaxWindows int
	// MaxSamples bounds the rolling estimate-accuracy sample ring.
	// Default 4096.
	MaxSamples int
	// SnapshotPath, when non-empty, periodically persists a JSON
	// snapshot of the store (tmp + rename) every SnapshotEvery
	// (default 30s). Close stops the ticker and writes a final one.
	SnapshotPath  string
	SnapshotEvery time.Duration
}

// Store is the fleet-analytics store. Create with New. Emit implements
// obs.Observer so the engine forwards events with one interface call.
type Store struct {
	mu  sync.Mutex
	cfg Config

	// Tenant dictionary: attribution strings are interned once; every
	// row and sample carries the small index.
	tenantIdx map[string]int
	tenants   []*tenantAgg

	// Per-job rows, column-oriented: parallel slices compacted in
	// lockstep on eviction. byID maps job ID → row index.
	byID       map[int]int
	colID      []int
	colTenant  []int32
	colName    []string
	colArrive  []float64
	colDone    []float64
	colSlotSec []float64
	colWAN     []float64
	colStages  []int32
	colState   []int8 // 0 live, 1 done

	// Fleet-wide totals (the offline-parity surface).
	doneJobs     int
	slotSecTotal float64
	wanTotal     float64

	// LP decision counters (Placement events).
	lpSolves, lpFallbacks, lpDeadline int

	// Estimate-accuracy join: pending per-stage estimates and the
	// rolling relative-error sample ring.
	estMarks   map[stageKey]estMark
	samples    []errSample // ring, len ≤ MaxSamples
	sampleNext int         // ring write cursor
	sampleSeen int         // total samples ever observed

	// Windowed usage trends, oldest first.
	windows []*usageWindow

	snapStop chan struct{}
	snapDone chan struct{}
}

type tenantAgg struct {
	name      string
	admitted  int
	done      int
	slotSec   float64
	wan       float64
	rescued   int     // stages finished by a speculative copy
	spec      int     // stages that launched a duplicate
	requeues  int     // crash requeues
	wasteSlot float64 // slot-seconds burned by dead attempts
}

type stageKey struct{ job, stage int }

type estMark struct {
	t, est float64
	tenant int32
}

type errSample struct {
	t      float64
	tenant int32
	err    float64 // |actual − estimate| / estimate
}

type usageWindow struct {
	bucket    int64
	slotSec   []float64 // per-site committed slot-seconds
	wanBySite []float64 // per-site WAN upload bytes (sim FlowStart path)
	wan       float64   // total WAN bytes attributed this window
	tenantSS  map[int32]float64
	jobsDone  int
}

// New returns an empty Store and starts the snapshot ticker when
// configured.
func New(cfg Config) *Store {
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 8192
	}
	if cfg.Window <= 0 {
		cfg.Window = 60
	}
	if cfg.MaxWindows <= 0 {
		cfg.MaxWindows = 240
	}
	if cfg.MaxSamples <= 0 {
		cfg.MaxSamples = 4096
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 30 * time.Second
	}
	s := &Store{
		cfg:       cfg,
		tenantIdx: make(map[string]int),
		byID:      make(map[int]int),
		estMarks:  make(map[stageKey]estMark),
	}
	if cfg.SnapshotPath != "" {
		s.snapStop = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapshotLoop()
	}
	return s
}

// Close stops the snapshot ticker (writing a final snapshot) if one is
// running. Safe to call once.
func (s *Store) Close() error {
	if s.snapStop == nil {
		return nil
	}
	close(s.snapStop)
	<-s.snapDone
	return nil
}

func (s *Store) snapshotLoop() {
	defer close(s.snapDone)
	tick := time.NewTicker(s.cfg.SnapshotEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.WriteSnapshot(s.cfg.SnapshotPath)
		case <-s.snapStop:
			s.WriteSnapshot(s.cfg.SnapshotPath)
			return
		}
	}
}

func tenantOr(t string) string {
	if t == "" {
		return "default"
	}
	return t
}

// tenant interns an attribution string (caller holds the lock).
func (s *Store) tenant(name string) int32 {
	if i, ok := s.tenantIdx[name]; ok {
		return int32(i)
	}
	i := len(s.tenants)
	s.tenantIdx[name] = i
	s.tenants = append(s.tenants, &tenantAgg{name: name})
	return int32(i)
}

// Emit ingests one event. It implements obs.Observer, so an Engine
// configured with the store forwards its whole stream here.
func (s *Store) Emit(ev obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e := ev.(type) {
	case obs.JobArrival:
		s.addJob(e.Job, s.tenant(tenantOr(e.Tenant)), e.Name, e.T)
	case obs.JobDone:
		s.jobDone(e.Job, e.T, e.WANBytes)
	case obs.StageLaunch:
		s.stageLaunch(e)
	case obs.StageDone:
		s.stageDone(e)
	case obs.StageRequeue:
		if row, ok := s.byID[e.Job]; ok {
			ta := s.tenants[s.colTenant[row]]
			ta.requeues++
			ta.wasteSlot += e.SlotSeconds
		}
	case obs.StageSpeculate:
		if row, ok := s.byID[e.Job]; ok {
			s.tenants[s.colTenant[row]].spec++
		}
	case obs.Placement:
		s.placement(e)
	case obs.FlowStart:
		w := s.window(e.T)
		w.wan += e.Bytes
		growTo(&w.wanBySite, e.Src)
		w.wanBySite[e.Src] += e.Bytes
	}
}

func (s *Store) addJob(id int, tenant int32, name string, t float64) {
	if _, ok := s.byID[id]; ok {
		return // idempotent: journal replay re-emits arrivals
	}
	s.byID[id] = len(s.colID)
	s.colID = append(s.colID, id)
	s.colTenant = append(s.colTenant, tenant)
	s.colName = append(s.colName, name)
	s.colArrive = append(s.colArrive, t)
	s.colDone = append(s.colDone, 0)
	s.colSlotSec = append(s.colSlotSec, 0)
	s.colWAN = append(s.colWAN, 0)
	s.colStages = append(s.colStages, 0)
	s.colState = append(s.colState, 0)
	s.tenants[tenant].admitted++
	if len(s.colID) > s.cfg.MaxJobs {
		s.evict()
	}
}

// evict drops the oldest completed rows until the row count is at 3/4
// of MaxJobs. Aggregates are maintained incrementally, so eviction only
// shrinks the top-N listing surface, never the totals. Live rows are
// never evicted (they are still accumulating events).
func (s *Store) evict() {
	target := s.cfg.MaxJobs * 3 / 4
	keep := 0
	excess := len(s.colID) - target
	for i := 0; i < len(s.colID); i++ {
		if excess > 0 && s.colState[i] == 1 {
			delete(s.byID, s.colID[i])
			excess--
			continue
		}
		if keep != i {
			s.colID[keep] = s.colID[i]
			s.colTenant[keep] = s.colTenant[i]
			s.colName[keep] = s.colName[i]
			s.colArrive[keep] = s.colArrive[i]
			s.colDone[keep] = s.colDone[i]
			s.colSlotSec[keep] = s.colSlotSec[i]
			s.colWAN[keep] = s.colWAN[i]
			s.colStages[keep] = s.colStages[i]
			s.colState[keep] = s.colState[i]
			s.byID[s.colID[keep]] = keep
		}
		keep++
	}
	s.colID = s.colID[:keep]
	s.colTenant = s.colTenant[:keep]
	s.colName = s.colName[:keep]
	s.colArrive = s.colArrive[:keep]
	s.colDone = s.colDone[:keep]
	s.colSlotSec = s.colSlotSec[:keep]
	s.colWAN = s.colWAN[:keep]
	s.colStages = s.colStages[:keep]
	s.colState = s.colState[:keep]
}

func (s *Store) jobDone(id int, t, wanBytes float64) {
	row, ok := s.byID[id]
	if !ok {
		// Arrival lost (ring overflow before the trace was fetched):
		// attribute to the default tenant so totals still balance.
		ti := s.tenant("default")
		s.addJob(id, ti, "", t)
		row = s.byID[id]
	}
	if s.colState[row] == 1 {
		return // duplicate (event + journal): count once
	}
	s.colState[row] = 1
	s.colDone[row] = t
	s.colWAN[row] += wanBytes
	ta := s.tenants[s.colTenant[row]]
	ta.done++
	ta.wan += wanBytes
	s.doneJobs++
	s.wanTotal += wanBytes
	s.window(t).jobsDone++
}

func (s *Store) stageDone(e obs.StageDone) {
	row, ok := s.byID[e.Job]
	if !ok {
		return
	}
	ta := s.tenants[s.colTenant[row]]
	s.colSlotSec[row] += e.SlotSeconds
	s.colStages[row]++
	ta.slotSec += e.SlotSeconds
	s.slotSecTotal += e.SlotSeconds
	if e.Rescued {
		ta.rescued++
	}
	k := stageKey{e.Job, e.Stage}
	if m, ok := s.estMarks[k]; ok {
		delete(s.estMarks, k)
		if m.est > 0 {
			actual := e.T - m.t
			err := actual - m.est
			if err < 0 {
				err = -err
			}
			s.addSample(errSample{t: e.T, tenant: m.tenant, err: err / m.est})
		}
	}
}

func (s *Store) stageLaunch(e obs.StageLaunch) {
	w := s.window(e.T)
	for site, n := range e.SlotsBySite {
		if n == 0 {
			continue
		}
		growTo(&w.slotSec, site)
		w.slotSec[site] += float64(n) * e.Est
	}
	w.wan += e.WANBytes
	if row, ok := s.byID[e.Job]; ok {
		ti := s.colTenant[row]
		if w.tenantSS == nil {
			w.tenantSS = make(map[int32]float64)
		}
		w.tenantSS[ti] += float64(e.Slots) * e.Est
	}
}

func (s *Store) placement(e obs.Placement) {
	s.lpSolves++
	if e.Fallback {
		s.lpFallbacks++
	}
	if e.Deadline {
		s.lpDeadline++
	}
	if row, ok := s.byID[e.Job]; ok && s.colState[row] == 0 {
		// Latest placement before completion re-stamps the estimate,
		// mirroring the obs.Recorder estimate-vs-actual join.
		s.estMarks[stageKey{e.Job, e.Stage}] = estMark{t: e.T, est: e.Est, tenant: s.colTenant[row]}
	}
}

func (s *Store) addSample(sm errSample) {
	s.sampleSeen++
	if len(s.samples) < s.cfg.MaxSamples {
		s.samples = append(s.samples, sm)
		return
	}
	s.samples[s.sampleNext] = sm
	s.sampleNext = (s.sampleNext + 1) % s.cfg.MaxSamples
}

// window returns the usage bucket covering event time t, creating it
// (and evicting the oldest beyond MaxWindows) as needed.
func (s *Store) window(t float64) *usageWindow {
	b := int64(t / s.cfg.Window)
	// Events are (nearly) time-ordered: the last window almost always
	// matches; otherwise scan back, then insert in order.
	for i := len(s.windows) - 1; i >= 0; i-- {
		if s.windows[i].bucket == b {
			return s.windows[i]
		}
		if s.windows[i].bucket < b {
			w := &usageWindow{bucket: b}
			s.windows = append(s.windows, nil)
			copy(s.windows[i+2:], s.windows[i+1:])
			s.windows[i+1] = w
			s.trimWindows()
			return w
		}
	}
	w := &usageWindow{bucket: b}
	s.windows = append([]*usageWindow{w}, s.windows...)
	s.trimWindows()
	return w
}

func (s *Store) trimWindows() {
	if n := len(s.windows) - s.cfg.MaxWindows; n > 0 {
		s.windows = append([]*usageWindow(nil), s.windows[n:]...)
	}
}

func growTo(v *[]float64, idx int) {
	for len(*v) <= idx {
		*v = append(*v, 0)
	}
}

// IngestJournal folds recovered journal state into the store,
// deduplicating by job ID: only jobs whose events were lost (admitted
// before the trace began, or dropped from the event ring) contribute.
// Call after event ingestion so the richer event-derived rows win.
func (s *Store) IngestJournal(st *journal.State) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, lj := range st.Live {
		if _, ok := s.byID[lj.ID]; ok {
			continue
		}
		name := ""
		if lj.Spec != nil {
			name = lj.Spec.Name
		}
		s.addJob(lj.ID, s.tenant(tenantOr(lj.Tenant)), name, 0)
	}
	for _, dj := range st.Done {
		if row, ok := s.byID[dj.ID]; ok {
			if s.colState[row] == 1 {
				continue // already counted from the event stream
			}
			// Row exists live (arrival seen, completion lost): finish it
			// from the journal record.
			s.colName[row] = dj.Name
			s.colStages[row] = int32(dj.Stages)
			s.jobDone(dj.ID, 0, dj.WANBytes)
			continue
		}
		ti := s.tenant(tenantOr(dj.Tenant))
		s.addJob(dj.ID, ti, dj.Name, 0)
		row := s.byID[dj.ID]
		s.colStages[row] = int32(dj.Stages)
		s.jobDone(dj.ID, 0, dj.WANBytes)
	}
}

// Totals is the fleet-wide aggregate surface used for live-vs-offline
// parity checks: a live store and an offline re-ingestion of the same
// trace + journal must agree bit-for-bit.
type Totals struct {
	Jobs        int     `json:"jobs"` // completed jobs
	Admitted    int     `json:"admitted"`
	SlotSeconds float64 `json:"slot_seconds"`
	WANBytes    float64 `json:"wan_bytes"`
}

// Totals returns the fleet-wide aggregates.
func (s *Store) Totals() Totals {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalsLocked()
}

func (s *Store) totalsLocked() Totals {
	admitted := 0
	for _, ta := range s.tenants {
		admitted += ta.admitted
	}
	return Totals{
		Jobs:        s.doneJobs,
		Admitted:    admitted,
		SlotSeconds: s.slotSecTotal,
		WANBytes:    s.wanTotal,
	}
}

// Report types -----------------------------------------------------------

// TenantUsage is one tenant's row in the resource-hogs report.
type TenantUsage struct {
	Tenant      string  `json:"tenant"`
	Admitted    int     `json:"admitted"`
	Done        int     `json:"done"`
	SlotSeconds float64 `json:"slot_seconds"`
	WANBytes    float64 `json:"wan_bytes"`
	SlotShare   float64 `json:"slot_share"` // fraction of fleet slot-seconds
	WANShare    float64 `json:"wan_share"`
}

// JobUsage is one job's row in the top-consumer listings.
type JobUsage struct {
	ID          int     `json:"id"`
	Tenant      string  `json:"tenant"`
	Name        string  `json:"name,omitempty"`
	SlotSeconds float64 `json:"slot_seconds"`
	WANBytes    float64 `json:"wan_bytes"`
	Done        bool    `json:"done"`
}

// ResourceHogs is the /v1/analytics/resource-hogs response.
type ResourceHogs struct {
	Totals               Totals        `json:"totals"`
	Tenants              []TenantUsage `json:"tenants"` // by slot-seconds desc
	TopJobsBySlotSeconds []JobUsage    `json:"top_jobs_by_slot_seconds"`
	TopJobsByWANBytes    []JobUsage    `json:"top_jobs_by_wan_bytes"`
}

// ResourceHogs ranks tenants and jobs by consumption. top bounds the
// per-job listings (≤ 0 means 10).
func (s *Store) ResourceHogs(top int) ResourceHogs {
	if top <= 0 {
		top = 10
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := ResourceHogs{Totals: s.totalsLocked()}
	for _, ta := range s.tenants {
		tu := TenantUsage{
			Tenant: ta.name, Admitted: ta.admitted, Done: ta.done,
			SlotSeconds: ta.slotSec, WANBytes: ta.wan,
		}
		if s.slotSecTotal > 0 {
			tu.SlotShare = ta.slotSec / s.slotSecTotal
		}
		if s.wanTotal > 0 {
			tu.WANShare = ta.wan / s.wanTotal
		}
		out.Tenants = append(out.Tenants, tu)
	}
	sort.Slice(out.Tenants, func(a, b int) bool {
		if out.Tenants[a].SlotSeconds != out.Tenants[b].SlotSeconds {
			return out.Tenants[a].SlotSeconds > out.Tenants[b].SlotSeconds
		}
		return out.Tenants[a].Tenant < out.Tenants[b].Tenant
	})
	out.TopJobsBySlotSeconds = s.topJobs(top, s.colSlotSec)
	out.TopJobsByWANBytes = s.topJobs(top, s.colWAN)
	return out
}

func (s *Store) topJobs(top int, key []float64) []JobUsage {
	idx := make([]int, len(s.colID))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if key[idx[a]] != key[idx[b]] {
			return key[idx[a]] > key[idx[b]]
		}
		return s.colID[idx[a]] < s.colID[idx[b]]
	})
	if len(idx) > top {
		idx = idx[:top]
	}
	out := make([]JobUsage, 0, len(idx))
	for _, i := range idx {
		out = append(out, JobUsage{
			ID: s.colID[i], Tenant: s.tenants[s.colTenant[i]].name, Name: s.colName[i],
			SlotSeconds: s.colSlotSec[i], WANBytes: s.colWAN[i], Done: s.colState[i] == 1,
		})
	}
	return out
}

// TenantEfficiency is one tenant's row in the efficiency report.
type TenantEfficiency struct {
	Tenant           string  `json:"tenant"`
	SpeculatedStages int     `json:"speculated_stages"`
	RescuedStages    int     `json:"rescued_stages"`
	RescueRate       float64 `json:"rescue_rate"` // rescued / speculated
	Requeues         int     `json:"requeues"`
	WasteSlotSeconds float64 `json:"waste_slot_seconds"`
	WasteFraction    float64 `json:"waste_fraction"` // waste / slot-seconds
	SlotSeconds      float64 `json:"slot_seconds"`
}

// Efficiency is the /v1/analytics/efficiency response.
type Efficiency struct {
	Tenants             []TenantEfficiency `json:"tenants"`
	LPSolves            int                `json:"lp_solves"`
	LPFallbacks         int                `json:"lp_fallbacks"`
	LPDeadlineFallbacks int                `json:"lp_deadline_fallbacks"`
}

// Efficiency reports speculation payoff, re-execution waste, and LP
// solve counts, per tenant and fleet-wide.
func (s *Store) Efficiency() Efficiency {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Efficiency{
		LPSolves: s.lpSolves, LPFallbacks: s.lpFallbacks, LPDeadlineFallbacks: s.lpDeadline,
	}
	for _, ta := range s.tenants {
		te := TenantEfficiency{
			Tenant: ta.name, SpeculatedStages: ta.spec, RescuedStages: ta.rescued,
			Requeues: ta.requeues, WasteSlotSeconds: ta.wasteSlot, SlotSeconds: ta.slotSec,
		}
		if ta.spec > 0 {
			te.RescueRate = float64(ta.rescued) / float64(ta.spec)
		}
		if ta.slotSec > 0 {
			te.WasteFraction = ta.wasteSlot / ta.slotSec
		}
		out.Tenants = append(out.Tenants, te)
	}
	sort.Slice(out.Tenants, func(a, b int) bool { return out.Tenants[a].Tenant < out.Tenants[b].Tenant })
	return out
}

// ErrPercentiles summarizes a relative-error distribution.
type ErrPercentiles struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// TenantAccuracy is one tenant's estimate-accuracy row.
type TenantAccuracy struct {
	Tenant string `json:"tenant"`
	ErrPercentiles
}

// EstimateAccuracy is the /v1/analytics/estimate-accuracy response:
// rolling LP estimate-vs-actual relative stage-duration error.
type EstimateAccuracy struct {
	SamplesSeen int              `json:"samples_seen"` // lifetime, ≥ retained
	Overall     ErrPercentiles   `json:"overall"`
	Tenants     []TenantAccuracy `json:"tenants"`
}

// EstimateAccuracy computes error percentiles over the retained sample
// ring, fleet-wide and per tenant.
func (s *Store) EstimateAccuracy() EstimateAccuracy {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := EstimateAccuracy{SamplesSeen: s.sampleSeen}
	all := make([]float64, 0, len(s.samples))
	per := make(map[int32][]float64)
	for _, sm := range s.samples {
		all = append(all, sm.err)
		per[sm.tenant] = append(per[sm.tenant], sm.err)
	}
	out.Overall = percentiles(all)
	tis := make([]int, 0, len(per))
	for ti := range per {
		tis = append(tis, int(ti))
	}
	sort.Ints(tis)
	for _, ti := range tis {
		out.Tenants = append(out.Tenants, TenantAccuracy{
			Tenant:         s.tenants[ti].name,
			ErrPercentiles: percentiles(per[int32(ti)]),
		})
	}
	sort.Slice(out.Tenants, func(a, b int) bool { return out.Tenants[a].Tenant < out.Tenants[b].Tenant })
	return out
}

func percentiles(v []float64) ErrPercentiles {
	out := ErrPercentiles{Count: len(v)}
	if len(v) == 0 {
		return out
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	out.Mean = sum / float64(len(v))
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	out.P50 = metrics.PercentileSorted(sorted, 50)
	out.P90 = metrics.PercentileSorted(sorted, 90)
	out.P95 = metrics.PercentileSorted(sorted, 95)
	out.P99 = metrics.PercentileSorted(sorted, 99)
	return out
}

// TenantWindow is one tenant's slot-seconds within a usage window.
type TenantWindow struct {
	Tenant      string  `json:"tenant"`
	SlotSeconds float64 `json:"slot_seconds"`
}

// UsageWindow is one time bucket of the usage-trends report.
type UsageWindow struct {
	Start             float64        `json:"start"`
	End               float64        `json:"end"`
	SlotSecondsBySite []float64      `json:"slot_seconds_by_site,omitempty"`
	WANBytes          float64        `json:"wan_bytes"`
	WANBytesBySite    []float64      `json:"wan_bytes_by_site,omitempty"`
	JobsDone          int            `json:"jobs_done"`
	Tenants           []TenantWindow `json:"tenants,omitempty"`
}

// UsageTrends is the /v1/analytics/capacity/usage-trends response.
type UsageTrends struct {
	WindowSeconds float64       `json:"window_seconds"`
	Windows       []UsageWindow `json:"windows"`
}

// UsageTrends returns the most recent n usage windows (≤ 0: all
// retained), oldest first.
func (s *Store) UsageTrends(n int) UsageTrends {
	s.mu.Lock()
	defer s.mu.Unlock()
	ws := s.windows
	if n > 0 && len(ws) > n {
		ws = ws[len(ws)-n:]
	}
	out := UsageTrends{WindowSeconds: s.cfg.Window}
	for _, w := range ws {
		uw := UsageWindow{
			Start:             float64(w.bucket) * s.cfg.Window,
			End:               float64(w.bucket+1) * s.cfg.Window,
			SlotSecondsBySite: append([]float64(nil), w.slotSec...),
			WANBytes:          w.wan,
			WANBytesBySite:    append([]float64(nil), w.wanBySite...),
			JobsDone:          w.jobsDone,
		}
		tis := make([]int, 0, len(w.tenantSS))
		for ti := range w.tenantSS {
			tis = append(tis, int(ti))
		}
		sort.Ints(tis)
		for _, ti := range tis {
			uw.Tenants = append(uw.Tenants, TenantWindow{
				Tenant: s.tenants[ti].name, SlotSeconds: w.tenantSS[int32(ti)],
			})
		}
		out.Windows = append(out.Windows, uw)
	}
	return out
}

// Snapshot is the persisted/summary view of the whole store.
type Snapshot struct {
	Totals           Totals           `json:"totals"`
	ResourceHogs     ResourceHogs     `json:"resource_hogs"`
	Efficiency       Efficiency       `json:"efficiency"`
	EstimateAccuracy EstimateAccuracy `json:"estimate_accuracy"`
	UsageTrends      UsageTrends      `json:"usage_trends"`
}

// Summary assembles the full snapshot document.
func (s *Store) Summary() Snapshot {
	return Snapshot{
		Totals:           s.Totals(),
		ResourceHogs:     s.ResourceHogs(10),
		Efficiency:       s.Efficiency(),
		EstimateAccuracy: s.EstimateAccuracy(),
		UsageTrends:      s.UsageTrends(0),
	}
}

// WriteSnapshot persists the summary as JSON via tmp + rename.
func (s *Store) WriteSnapshot(path string) error {
	doc := s.Summary()
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("fleet: snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("fleet: snapshot: %w", err)
	}
	return nil
}

package engine

// The failure domain: what the engine does when the world breaks.
//
//   - Site loss (injected or real): every stage running on the dead site
//     is pulled back to ready and re-executed elsewhere; surviving
//     placements are re-pulled through §4.2 dynamics.Reassign with the
//     dead site's capacity zeroed (applyFault / requeueStage).
//   - Stragglers: a running stage whose attempt exceeds a
//     percentile-calibrated multiple of its estimate gets a speculative
//     duplicate on the fastest eligible site; first finish wins, the
//     loser is cancelled (arXiv:1404.1328: replicate-on-threshold bounds
//     tail latency at bounded extra load).
//   - Wedged LP solves: each async solve races Config.SolveDeadline;
//     on expiry the stage is placed by the greedy in-place baseline
//     (flagged Deadline) and the real solve is retried with
//     jittered backoff, upgrading the placement if it lands before
//     launch.
//   - Process death: admissions/placements/completions are journaled
//     (internal/journal); restore() rebuilds state from the recovered
//     journal before the loop accepts traffic.

import (
	"fmt"
	"sort"
	"time"

	"tetrium/internal/fault"
	"tetrium/internal/journal"
	"tetrium/internal/metrics"
	"tetrium/internal/obs"
	"tetrium/internal/place"
	"tetrium/internal/workload"
)

// drainRateWindow bounds the completion-time ring used to estimate the
// drain rate behind Retry-After.
const drainRateWindow = 128

// Fault application -----------------------------------------------------------

// applyFault lands one injector timeline fault on the loop.
func (s *state) applyFault(f fault.Fault) {
	switch f.Kind {
	case fault.PanicInject:
		// Site >= 0 targets a federation shard — the supervisor applies
		// those; an individual engine only honors an untargeted panic.
		if f.Site >= 0 {
			return
		}
		// The panic unwinds to the loop's runGuarded recover, exercising
		// containment end to end.
		panic(fmt.Sprintf("fault: injected panic at t=%.3fs", f.Time))
	case fault.JournalCorrupt:
		// Federation-level fault (the supervisor flips the byte in the
		// target shard's journal file); engines ignore it.
		return
	}
	if f.Site < 0 || f.Site >= s.n {
		return
	}
	orig := s.e.cfg.Cluster.Sites[f.Site]
	t := s.now()
	// Degraded links floor at 1 MB/s rather than zero: placement
	// estimates feed wall-clock run durations here, and a near-zero
	// divisor turns one stage into a forever-running stage. A full
	// partition is approximated as a link this slow.
	const minBW = 1e6
	grew := false
	switch f.Kind {
	case fault.SiteCrash:
		// Kill semantics, not decommission: running work on the site is
		// lost and must re-execute. Requeue before zeroing capacity so
		// the held-slot release and the capacity delta keep the
		// free = cap − Σheld invariant. Compute dies; the site's storage
		// tier and WAN link stay reachable (a dead link is LinkDegrade's
		// job), so data staged there can still feed placements elsewhere.
		//
		// The victims come from the site→stage index rather than a scan
		// of every resident job: any stage holding slots or running a
		// duplicate at the site is indexed there (held sites are a
		// subset of task sites; the duplicate's site is indexed
		// explicitly). Collect first — requeueing edits the index —
		// and act in submission order, matching the old full scan.
		var hit []*stageRun
		for sr := range s.stageSites[f.Site] {
			if (sr.specActive && sr.specSite == f.Site) ||
				(sr.phase == stageRunning && sr.held[f.Site] > 0) {
				hit = append(hit, sr)
			}
		}
		sort.Slice(hit, func(i, j int) bool {
			if hit[i].job.orderPos != hit[j].job.orderPos {
				return hit[i].job.orderPos < hit[j].job.orderPos
			}
			return hit[i].idx < hit[j].idx
		})
		for _, sr := range hit {
			if sr.specActive && sr.specSite == f.Site {
				s.accrueSlots(sr)
				s.cancelSpec(sr) // the duplicate died with the site
			}
			if sr.phase == stageRunning && sr.held[f.Site] > 0 {
				s.requeueStage(sr.job, sr, f.Site, t)
			}
		}
		delta := s.capSlots[f.Site]
		s.capSlots[f.Site] = 0
		s.free[f.Site] -= delta
	case fault.SiteRejoin:
		delta := orig.Slots - s.capSlots[f.Site]
		s.capSlots[f.Site] = orig.Slots
		s.free[f.Site] += delta
		s.upBW[f.Site] = orig.UpBW
		s.downBW[f.Site] = orig.DownBW
		grew = true // capacity restored: freed room can attract any placement
	case fault.LinkDegrade:
		up := maxFloat(orig.UpBW*(1-f.Frac), minBW)
		down := maxFloat(orig.DownBW*(1-f.Frac), minBW)
		grew = up > s.upBW[f.Site] || down > s.downBW[f.Site]
		s.upBW[f.Site] = up
		s.downBW[f.Site] = down
	case fault.LinkRestore:
		grew = orig.UpBW > s.upBW[f.Site] || orig.DownBW > s.downBW[f.Site]
		s.upBW[f.Site] = orig.UpBW
		s.downBW[f.Site] = orig.DownBW
	default:
		return
	}
	s.emit(obs.Fault{T: t, Fault: f.Kind.String(), Site: f.Site, Frac: f.Frac})
	// §4.2 resource dynamics: surviving placements re-pull toward the
	// post-fault ideal under the UpdateK site-change bound; requeued
	// stages (no longer placed) re-solve fresh on the next pass. A
	// capacity increase (rejoin, restore) dirties every live placement;
	// a pure loss re-places only the stages touching the lost site.
	s.resGen++
	s.replacePlacements([]int{f.Site}, grew)
	s.scheduleSoon()
}

// requeueStage pulls a running stage back to ready after its site died:
// slots released, completion timer invalidated, placement discarded (it
// references a dead site), and the lost running tasks counted as
// re-executed work.
func (s *state) requeueStage(js *jobState, sr *stageRun, site int, t float64) {
	s.accrueSlots(sr)
	waste := sr.slotSec - sr.attemptSlot0
	lost := sr.heldTotal
	for x, h := range sr.held {
		s.free[x] += h
	}
	sr.held = nil
	sr.heldTotal = 0
	sr.gen++ // the old attempt's completion timer is now a no-op
	sr.phase = stageReady
	sr.placed = false
	sr.solving = false
	sr.attempt++
	s.cancelSpec(sr)
	s.noteStageReady(js)
	s.indexStage(sr)
	s.rec.Registry().Counter("engine.tasks_reexecuted").Add(float64(lost))
	s.emit(obs.StageRequeue{T: t, Job: js.id, Stage: sr.idx, Site: site, Tasks: lost, SlotSeconds: waste})
}

// Straggler speculation -------------------------------------------------------

// scheduleSpecCheck arms the straggler probe for one stage attempt: if
// the attempt is still running at threshold×estimate, a duplicate
// launches.
func (s *state) scheduleSpecCheck(js *jobState, sr *stageRun, gen int) {
	if !s.e.cfg.Speculate || sr.expectWall <= 0 {
		return
	}
	wait := time.Duration(s.specThreshold() * float64(sr.expectWall))
	s.e.afterFunc(wait, func() {
		s.e.inject(func() { s.specCheck(js, sr, gen) })
	})
}

// specThreshold is the straggle multiplier that triggers a duplicate:
// the SpecPercentile of observed actual/estimate stage-duration ratios,
// floored at 1.5 (never speculate on on-estimate stages), defaulting to
// 2 until enough history accumulates (the 1404.1328 regime where a
// single replica past a calibrated threshold captures most of the tail
// win).
func (s *state) specThreshold() float64 {
	const defaultThr, minThr, minSamples = 2.0, 1.5, 16
	if len(s.specRatios) < minSamples {
		return defaultThr
	}
	thr := metrics.Percentile(s.specRatios, s.e.cfg.SpecPercentile)
	return maxFloat(thr, minThr)
}

// observeStageRatio feeds the threshold calibration from an original
// (non-rescued) completion.
func (s *state) observeStageRatio(sr *stageRun) {
	if sr.expectWall <= 0 {
		return
	}
	elapsed := s.now() - sr.launchedAt
	ratio := elapsed / sr.expectWall.Seconds()
	s.specRatios = append(s.specRatios, ratio)
	if len(s.specRatios) > drainRateWindow {
		s.specRatios = s.specRatios[len(s.specRatios)-drainRateWindow:]
	}
}

// specCheck fires threshold×estimate after launch: if the attempt is
// still the same one and still running, launch a duplicate of the stage
// on the fastest eligible site — the one with the most free slots, the
// best proxy for soonest finish under the wave model.
func (s *state) specCheck(js *jobState, sr *stageRun, gen int) {
	if sr.phase != stageRunning || sr.gen != gen || sr.specActive {
		return
	}
	best := -1
	for x := 0; x < s.n; x++ {
		if s.capSlots[x] > 0 && s.free[x] > 0 && (best < 0 || s.free[x] > s.free[best]) {
			best = x
		}
	}
	if best < 0 {
		// Cluster saturated right now; re-probe after a fraction of the
		// estimate. The phase/gen guards end the loop when the stage
		// finishes, so this cannot outlive the straggler.
		wait := sr.expectWall / 4
		if wait <= 0 {
			wait = time.Millisecond
		}
		s.e.afterFunc(wait, func() {
			s.e.inject(func() { s.specCheck(js, sr, gen) })
		})
		return
	}
	// Accrue at the pre-duplicate holding level before the level rises.
	s.accrueSlots(sr)
	slots := minInt(s.free[best], maxInt(sr.heldTotal, 1))
	s.free[best] -= slots
	sr.specActive = true
	sr.specSite = best
	sr.specSlots = slots
	s.indexStage(sr)
	s.rec.Registry().Counter("engine.tasks_speculated").Add(float64(slots))
	s.emit(obs.StageSpeculate{T: s.now(), Job: js.id, Stage: sr.idx, Site: best, Tasks: slots})
	// The duplicate runs at estimate speed (re-running the straggler's
	// environment is the one thing known not to help).
	s.e.afterFunc(sr.expectWall, func() {
		s.e.inject(func() { s.specDone(js, sr, gen) })
	})
}

// specDone is the duplicate finishing. If the original is still running
// this same attempt, the copy won: the stage completes from the
// duplicate's site and the original's completion timer becomes a no-op
// via stageFinished's phase check.
func (s *state) specDone(js *jobState, sr *stageRun, gen int) {
	if sr.phase != stageRunning || sr.gen != gen || !sr.specActive {
		return
	}
	s.stageFinished(js, sr, gen, true)
}

// cancelSpec releases a duplicate's slots and disarms it. Safe to call
// when no duplicate is active.
func (s *state) cancelSpec(sr *stageRun) {
	if !sr.specActive {
		return
	}
	s.free[sr.specSite] += sr.specSlots
	sr.specActive = false
	sr.specSlots = 0
	s.indexStage(sr)
}

// LP-solve deadline -----------------------------------------------------------

// dispatchSolve runs one async solve attempt for a stage: the LP goes to
// the worker pool (with any injected stall), and if Config.SolveDeadline
// is set, a deadline races it — on expiry the stage falls back to the
// greedy in-place baseline and the LP is retried with jittered backoff
// (bounded by Config.SolveRetries). Caller has set sr.solving and bumped
// sr.solveSeq.
func (s *state) dispatchSolve(js *jobState, sr *stageRun, pr placeRequest, attempt int) {
	seq := sr.solveSeq
	gen := s.resGen
	res := place.Resources{
		Slots:  append([]int(nil), s.capSlots...),
		UpBW:   append([]float64(nil), s.upBW...),
		DownBW: append([]float64(nil), s.downBW...),
	}
	placer := s.e.cfg.Placer
	var stall time.Duration
	if inj := s.e.cfg.Faults; inj != nil {
		stall = inj.SolveStall(s.solveCount)
	}
	s.solveCount++
	// The worker gets its own clone of the stage's warm state: deadline
	// retries can put two attempts in flight concurrently, and the
	// loop's copy must never be written off-loop. The clone is installed
	// back on commit (latest attempt wins via the seq guard).
	warm := sr.warm.Clone()
	if warm == nil {
		warm = place.NewWarmState()
	}
	pr.setWarm(warm)
	s.e.pool.submit(func() {
		if stall > 0 {
			// Injected wedged solver. Stalls only ever run on a pool
			// worker — the loop's synchronous force-path never sleeps.
			time.Sleep(stall)
		}
		t0 := time.Now()
		r, fb := solveRequest(placer, res, pr)
		nanos := time.Since(t0).Nanoseconds()
		s.e.inject(func() {
			s.noteWarmStats(warm)
			if seq == sr.solveSeq {
				sr.warm = warm
			}
			s.commitPlacement(js, sr, pr, gen, seq, r, fb, nanos)
		})
	})
	if deadline := s.e.cfg.SolveDeadline; deadline > 0 {
		s.e.afterFunc(deadline, func() {
			s.e.inject(func() { s.solveDeadline(js, sr, pr, gen, seq, attempt) })
		})
	}
}

// solveDeadline fires when an async solve outlives Config.SolveDeadline
// without committing: place the stage NOW with the cheap greedy baseline
// so scheduling never stalls behind a wedged solver, and retry the real
// LP after a jittered backoff.
func (s *state) solveDeadline(js *jobState, sr *stageRun, pr placeRequest, gen, seq, attempt int) {
	if seq != sr.solveSeq || sr.placed || js.terminal() || gen != s.resGen {
		return // the solve (or a newer attempt, or an update) got there first
	}
	t0 := time.Now()
	res := place.Resources{Slots: s.capSlots, UpBW: s.upBW, DownBW: s.downBW}
	r, _ := solveRequest(place.InPlace{}, res, pr)
	// In-place means "run where the data is" — but a crashed data site
	// has no slots, and an estimate computed against zero capacity is
	// garbage. Spread over surviving capacity instead.
	for x, n := range r.tasks {
		if n > 0 && s.capSlots[x] == 0 {
			r = fallbackResult(s.capSlots, pr.numTasks(), stageTaskCompute(pr))
			break
		}
	}
	s.rec.Registry().Counter("engine.solves_deadline_fallback").Inc()
	s.applyPlacement(js, sr, pr, r, false, false, true, time.Since(t0).Nanoseconds())
	s.scheduleSoon()

	if attempt < s.e.cfg.SolveRetries {
		// Bounded retry: re-dispatch the real LP after 25ms·2^attempt
		// plus jitter; if it lands before the stage launches, the
		// placement upgrades in commitPlacement.
		backoff := (25 * time.Millisecond) << attempt
		backoff += time.Duration(s.rng.Int63n(int64(backoff)/2 + 1))
		sr.solveSeq++
		newSeq := sr.solveSeq
		s.e.afterFunc(backoff, func() {
			s.e.inject(func() {
				if sr.solveSeq != newSeq || js.terminal() || sr.phase != stageReady || !sr.deadlineFB {
					return
				}
				s.dispatchSolve(js, sr, pr, attempt+1)
			})
		})
	}
}

// Durable restart -------------------------------------------------------------

// restore rebuilds loop state from a recovered journal. Runs as the
// loop's first todo item, before any external request is served.
func (s *state) restore(rs *journal.State) {
	s.restoring = true
	defer func() { s.restoring = false }()
	if rs.NextID > s.nextID {
		s.nextID = rs.NextID
	}
	if rs.Quarantined > 0 {
		s.rec.Registry().Counter("journal.records_quarantined").Add(float64(rs.Quarantined))
	}
	for _, dj := range rs.Done {
		if dj.IdemKey != "" {
			// Completed work still dedups: a client retrying a key whose
			// job finished in a previous life gets the done status, not a
			// re-run.
			s.idemKeys[dj.IdemKey] = dj.ID
		}
		// Completed jobs come back as terminal records only — visible in
		// listings and the final report, never rescheduled.
		js := &jobState{
			id: dj.ID, name: dj.Name, tenant: dj.Tenant, phase: JobDone,
			stagesDone: dj.Stages, numStages: dj.Stages,
			submitted: time.UnixMilli(dj.SubmittedMs),
			finished:  time.UnixMilli(dj.FinishedMs),
			wanBytes:  dj.WANBytes,
		}
		js.orderPos = len(s.order)
		s.jobs[js.id] = js
		s.order = append(s.order, js)
	}
	for _, lj := range rs.Live {
		// Admitted-but-unfinished jobs re-run from scratch under their
		// original IDs: placements are decisions, not completed work,
		// and the cluster may differ across the restart.
		if lj.IdemKey != "" {
			s.idemKeys[lj.IdemKey] = lj.ID
		}
		s.admitRestored(lj)
	}
	s.rec.Registry().Counter("engine.jobs_restored").Add(float64(len(rs.Live)))
	if len(rs.Live) > 0 {
		s.scheduleSoon()
	}
}

// admitRestored is submit() for a journal-recovered live job: fixed ID,
// no re-journaling, exempt from MaxPending (the work was already
// accepted in a previous life).
func (s *state) admitRestored(lj journal.LiveJob) {
	js := &jobState{
		id:        lj.ID,
		name:      lj.Spec.Name,
		tenant:    lj.Tenant,
		spec:      lj.Spec,
		submitted: time.UnixMilli(lj.SubmittedMs),
		journaled: true, // its admit record is already durable
	}
	total := 0
	for si, st := range lj.Spec.Stages {
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
	js.orderPos = len(s.order)
	s.jobs[js.id] = js
	s.order = append(s.order, js)
	s.activeCount++
	s.rec.Registry().Gauge("engine.pending").Set(float64(s.activeCount))
	t := s.now()
	s.emit(obs.JobArrival{T: t, Job: js.id, Name: js.name, Tenant: js.tenant, Stages: len(js.stages), Tasks: total})
	for _, sr := range js.stages {
		if sr.phase == stageReady {
			s.noteStageReady(js)
			s.emit(obs.StageReady{T: t, Job: js.id, Stage: sr.idx, Tasks: len(sr.spec.Tasks)})
		}
	}
}

// Retry-After ----------------------------------------------------------------

// drainRate estimates recent job completions per second from the
// completion-time ring, looking back at most 30s.
func (s *state) drainRate(now time.Time) float64 {
	const window = 30 * time.Second
	cut := now.Add(-window)
	first := -1
	for i, t := range s.doneWall {
		if t.After(cut) {
			first = i
			break
		}
	}
	if first < 0 {
		return 0
	}
	recent := s.doneWall[first:]
	span := now.Sub(recent[0]).Seconds()
	if span <= 0 || len(recent) == 0 {
		return 0
	}
	return float64(len(recent)) / span
}

func stageTaskCompute(pr placeRequest) float64 {
	if pr.kind == "map" {
		return pr.mreq.TaskCompute
	}
	return pr.rreq.TaskCompute
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

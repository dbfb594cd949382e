package engine

// §4.2 re-placement, incrementally. A cluster update used to trigger
// replaceAll: a synchronous LP re-solve of every live placement on the
// event loop — O(resident jobs) solves per update, stalling admissions
// and reads for the duration. The replacement is a dirty-set pass:
//
//   - Dirty = stages whose placement touches an affected site (tasks,
//     held slots, speculative duplicate, or input data — stageSites).
//     A stage whose LP neither uses nor feeds from an affected site
//     solves to the same placement under the new capacities, so clean
//     stages are skipped outright. The skip is exact only for capacity
//     DECREASES: freed capacity at any site can attract every
//     placement, so a grow (rejoin, link restore, raised caps) marks
//     all placed live stages dirty — the old full behavior.
//   - Impact rank: running stages before ready ones, larger slot
//     holdings first — the work most worth re-pointing lands first.
//   - Each dirty stage re-solves synchronously on the event loop,
//     warm-started from its own previous basis (the same stage shape
//     against drifted capacities — the warm start's best case), so
//     updateCluster reports exactly how many stages it re-placed and
//     no re-solve can land against stale capacities.
//
// The differential tests (replace_test.go) pin incremental ≡ full
// bit-identically across fault timelines; Config.ReplaceFull keeps the
// full scan available as the oracle.

import (
	"sort"

	"tetrium/internal/dynamics"
)

// replacePlacements re-places stages affected by a capacity change at
// the given sites. grew reports whether any capacity dimension
// increased (forces a full pass). Returns the number of stages
// re-solved.
func (s *state) replacePlacements(affected []int, grew bool) int {
	if s.e.cfg.ReplaceFull {
		grew = true
	}
	dirty := s.collectDirty(affected, grew)
	if skipped := len(s.placedLive) - len(dirty); skipped > 0 {
		s.rec.Registry().Counter("engine.replace_skipped_clean").Add(float64(skipped))
	}
	k := s.e.cfg.UpdateK
	for _, sr := range dirty {
		old := append([]int(nil), sr.tasks...)
		s.ensurePlacement(sr.job, sr, true) // re-solve: sr.tasks is now the ideal f*
		if k > 0 {
			sr.tasks = dynamics.Reassign(old, sr.tasks, k)
		}
		s.indexStage(sr)
	}
	// Hold re-leveling runs over every running stage in submission
	// order, exactly as the full scan did: clean running stages keep
	// their (provably unchanged) placement but still re-level their
	// held slots against the new capacities. O(running) ≤ O(slots),
	// no LP involved.
	for _, sr := range s.sortedRunning() {
		s.migrateHeld(sr)
		s.indexStage(sr)
	}
	s.rec.Registry().Counter("engine.stages_replaced").Add(float64(len(dirty)))
	return len(dirty)
}

// collectDirty gathers the stages whose placement an update at the
// affected sites can change, impact-ranked: running before ready,
// larger slot holdings first, submission order as the tiebreak.
func (s *state) collectDirty(affected []int, all bool) []*stageRun {
	var out []*stageRun
	if all {
		out = make([]*stageRun, 0, len(s.placedLive))
		for sr := range s.placedLive {
			out = append(out, sr)
		}
	} else {
		seen := make(map[*stageRun]struct{})
		for _, x := range affected {
			if x < 0 || x >= s.n {
				continue
			}
			for sr := range s.stageSites[x] {
				if _, ok := seen[sr]; !ok {
					seen[sr] = struct{}{}
					out = append(out, sr)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		ar, br := a.phase == stageRunning, b.phase == stageRunning
		if ar != br {
			return ar
		}
		if a.heldTotal != b.heldTotal {
			return a.heldTotal > b.heldTotal
		}
		if a.job.orderPos != b.job.orderPos {
			return a.job.orderPos < b.job.orderPos
		}
		return a.idx < b.idx
	})
	return out
}

// migrateHeld re-levels a running stage's held slots toward its current
// assignment under the new capacities. Accrues slot-seconds at the old
// holding level first so attribution stays exact across the migration.
func (s *state) migrateHeld(sr *stageRun) {
	if sr.phase != stageRunning {
		return
	}
	s.accrueSlots(sr)
	for x, h := range sr.held {
		s.free[x] += h
	}
	alloc, total := s.allocate(sr.tasks, len(sr.spec.Tasks))
	for x, a := range alloc {
		s.free[x] -= a
	}
	sr.held = alloc
	sr.heldTotal = total
}

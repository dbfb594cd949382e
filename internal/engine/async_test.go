package engine

import (
	"strings"
	"sync"
	"testing"
	"time"

	"tetrium/internal/cluster"
	"tetrium/internal/obs"
	"tetrium/internal/place"
)

func waitJobDone(t *testing.T, e *Engine, id int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		js, err := e.Job(id)
		if err != nil {
			t.Fatalf("Job(%d): %v", id, err)
		}
		if js.Phase == JobDone {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d not done within 30s (phase %v)", id, js.Phase)
		}
		time.Sleep(time.Millisecond)
	}
}

func metricsText(t *testing.T, e *Engine) string {
	t.Helper()
	text, err := e.MetricsText()
	if err != nil {
		t.Fatalf("MetricsText: %v", err)
	}
	return string(text)
}

// TestEveryPlacementIsASolve: the same job submitted twice, the second
// time after the first has finished, against unchanged capacities, must
// be solved twice — every placement is an LP solve against the
// capacities of the moment, never a reuse of an earlier decision.
func TestEveryPlacementIsASolve(t *testing.T) {
	cl := cluster.PaperExample()
	e := mustEngine(t, testConfig(cl))

	for i := 0; i < 2; i++ {
		st, err := e.Submit(oneStageJob(1, 6, 5))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitJobDone(t, e, st.ID)
	}
	evs, _, err := e.Events()
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	placements := 0
	for _, ev := range evs {
		if _, ok := ev.(obs.Placement); ok {
			placements++
		}
	}
	if placements != 2 {
		t.Fatalf("placement events = %d, want 2", placements)
	}
	reg, err := e.MetricsSnapshot()
	if err != nil {
		t.Fatalf("MetricsSnapshot: %v", err)
	}
	if solves := reg.Counter("lp.solves").Value(); solves != float64(placements) {
		t.Errorf("lp.solves = %v, want %d (one per Placement event)", solves, placements)
	}
}

// gatedPlacer blocks the first PlaceMap call until gate is closed,
// holding a solve in flight on the worker pool so the test can land a
// cluster update mid-solve.
type gatedPlacer struct {
	inner   place.Placer
	gate    chan struct{}
	started chan struct{}
	once    sync.Once
}

func (g *gatedPlacer) Name() string { return "gated" }

func (g *gatedPlacer) PlaceMap(res place.Resources, req place.MapRequest) (place.MapPlacement, error) {
	g.once.Do(func() { close(g.started) })
	<-g.gate
	return g.inner.PlaceMap(res, req)
}

func (g *gatedPlacer) PlaceReduce(res place.Resources, req place.ReduceRequest) (place.ReducePlacement, error) {
	return g.inner.PlaceReduce(res, req)
}

// TestGenerationGuardDropsStaleSolve: a §4.2 update that lands while an
// LP is solving must invalidate that solve — the engine drops the stale
// result, re-solves against the fresh capacities, and still completes
// the job.
func TestGenerationGuardDropsStaleSolve(t *testing.T) {
	cl := cluster.PaperExample()
	cfg := testConfig(cl)
	gp := &gatedPlacer{
		inner:   place.Tetrium{},
		gate:    make(chan struct{}),
		started: make(chan struct{}),
	}
	cfg.Placer = gp
	cfg.SolveWorkers = 1
	e := mustEngine(t, cfg)

	st, err := e.Submit(oneStageJob(2, 8, 5))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	select {
	case <-gp.started:
	case <-time.After(10 * time.Second):
		t.Fatal("solve never reached the placer")
	}
	// The solve is now blocked on the worker; move the capacities from
	// under it.
	if _, err := e.UpdateCluster([]SiteUpdate{{Site: 0, Slots: -1, Frac: 0.5}}); err != nil {
		t.Fatalf("UpdateCluster: %v", err)
	}
	close(gp.gate)
	waitJobDone(t, e, st.ID)

	text := metricsText(t, e)
	if !strings.Contains(text, "counter   engine.solves_stale_dropped 1") {
		t.Errorf("stale solve not dropped:\n%s", text)
	}
	// The committed placement must be the re-solve, not the stale one:
	// exactly one placement event (the dropped solve emits none), and
	// the job completed.
	evs, _, err := e.Events()
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	placed := 0
	for _, ev := range evs {
		if _, ok := ev.(obs.Placement); ok {
			placed++
		}
	}
	if placed != 1 {
		t.Errorf("placement events = %d, want exactly 1 (stale solve dropped before commit)", placed)
	}
}

package engine

import (
	"strings"
	"testing"
	"time"

	"tetrium/internal/cluster"
	"tetrium/internal/place"
)

// TestWarmStartOnReplace: repeated §4.2 updates re-solve the same live
// stage shape synchronously on the loop — from the second re-solve on,
// the LP must re-enter phase 2 from the previous basis and the engine
// must surface it via engine.solves_warm_started. Certification stays
// on, so a warm solve that produced a bad point would fail the run.
func TestWarmStartOnReplace(t *testing.T) {
	cl := cluster.PaperExample()
	cfg := testConfig(cl)
	cfg.Placer = place.Tetrium{Check: true}
	cfg.TimeScale = 3600 // keep the stage running across updates
	e := mustEngine(t, cfg)

	st, err := e.Submit(oneStageJob(1, 8, 5))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFirstPlacement(t, e, st.ID)

	for i := 0; i < 4; i++ {
		frac := 0.2 + 0.1*float64(i%2)
		if _, err := e.UpdateCluster([]SiteUpdate{{Site: 0, Slots: -1, Frac: frac}}); err != nil {
			t.Fatalf("UpdateCluster: %v", err)
		}
	}
	text := metricsText(t, e)
	if !strings.Contains(text, "counter   engine.solves_warm_started") {
		t.Errorf("no warm-started solves after repeated re-placements:\n%s", text)
	}
}

// waitPoolClosed polls until close() has marked the pool closed (and so
// captured its dropped-solve count).
func waitPoolClosed(t *testing.T, p *solvePool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.mu.Lock()
		done := p.closed
		p.mu.Unlock()
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("pool never marked closed")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSolvePoolAccounting: every accepted submit must be either executed
// or reported dropped by close — nothing vanishes silently.
func TestSolvePoolAccounting(t *testing.T) {
	p := newSolvePool(1)
	gate := make(chan struct{})
	p.submit(func() { <-gate })
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.mu.Lock()
		started := p.executed == 1
		p.mu.Unlock()
		if started {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the gated task")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		p.submit(func() {})
	}
	closed := make(chan int)
	go func() { closed <- p.close() }()
	// Release the gate only after close has captured the queue —
	// otherwise the worker drains it first and nothing is dropped.
	waitPoolClosed(t, p)
	close(gate)
	dropped := <-closed
	if dropped != 3 {
		t.Errorf("close dropped %d queued solves, want 3", dropped)
	}
	p.mu.Lock()
	submitted, executed := p.submitted, p.executed
	p.mu.Unlock()
	if submitted != executed+dropped {
		t.Errorf("accounting broken: submitted %d != executed %d + dropped %d", submitted, executed, dropped)
	}
	if again := p.close(); again != 0 {
		t.Errorf("second close reported %d dropped, want 0", again)
	}
	p.submit(func() { t.Error("submit after close ran") })
	p.mu.Lock()
	if p.submitted != submitted {
		t.Errorf("submit after close was counted")
	}
	p.mu.Unlock()
}

// TestDrainThenCloseDropsNothing: a graceful drain leaves no queued
// solves behind, so close accounts for every submitted solve as
// executed and the drop counter never appears.
func TestDrainThenCloseDropsNothing(t *testing.T) {
	cl := cluster.PaperExample()
	e := mustEngine(t, testConfig(cl))
	for i := 0; i < 4; i++ {
		if _, err := e.Submit(oneStageJob(i%cl.N(), 6, 5)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	drainOK(t, e)
	text := metricsText(t, e)
	if strings.Contains(text, "engine.solves_dropped_on_close") {
		t.Errorf("drop counter present before close:\n%s", text)
	}
	e.Close()
	e.pool.mu.Lock()
	submitted, executed := e.pool.submitted, e.pool.executed
	e.pool.mu.Unlock()
	if submitted != executed {
		t.Errorf("drained engine closed with %d submitted != %d executed", submitted, executed)
	}
	// The loop is stopped; its registry is safe to read directly.
	if v := e.st.rec.Registry().Counter("engine.solves_dropped_on_close").Value(); v != 0 {
		t.Errorf("solves_dropped_on_close = %v after drain, want 0", v)
	}
}

// TestCloseCountsDroppedSolves: closing with solves still queued behind
// a wedged worker must surface the discarded count.
func TestCloseCountsDroppedSolves(t *testing.T) {
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

	if _, err := e.Submit(oneStageJob(0, 6, 5)); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	select {
	case <-gp.started:
	case <-time.After(10 * time.Second):
		t.Fatal("first solve never reached the placer")
	}
	// Two more solves queue behind the wedged worker.
	for i := 1; i <= 2; i++ {
		if _, err := e.Submit(oneStageJob(i%cl.N(), 6, 5)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		e.pool.mu.Lock()
		queued := len(e.pool.queue)
		e.pool.mu.Unlock()
		if queued == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("expected 2 queued solves, have %d", queued)
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	// Release the wedged solve only once pool.close has captured the
	// queue, so the queued solves are genuinely discarded, then let the
	// worker exit so Close can join it.
	waitPoolClosed(t, e.pool)
	close(gp.gate)
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return")
	}
	if v := e.st.rec.Registry().Counter("engine.solves_dropped_on_close").Value(); v != 2 {
		t.Errorf("solves_dropped_on_close = %v, want 2", v)
	}
}

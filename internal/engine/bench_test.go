package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"tetrium/internal/cluster"
	"tetrium/internal/place"
	"tetrium/internal/sched"
	"tetrium/internal/workload"
)

// BenchmarkEngineSubmit measures the submit-to-terminal cost of the
// serving path with instant stage completion (TimeScale 0): admission,
// placement solves, SRPT ordering, dispatch, and completion
// bookkeeping. Submissions rotate through a small set of distinct jobs;
// every submission solves its placements afresh.
func BenchmarkEngineSubmit(b *testing.B) {
	cl := cluster.EC2EightRegions()
	e, err := New(Config{
		Cluster:    cl,
		Placer:     place.Tetrium{},
		Policy:     sched.SRPT,
		Rho:        1,
		Eps:        1,
		MaxPending: 1 << 30,
	})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer e.Close()

	jobs := workload.Generate(workload.BigData(cl.N(), 8, 21))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			_, err := e.Submit(jobs[i%len(jobs)])
			if errors.Is(err, ErrQueueFull) {
				time.Sleep(time.Millisecond)
				continue
			}
			if err != nil {
				b.Fatalf("Submit: %v", err)
			}
			break
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		b.Fatalf("Drain: %v", err)
	}
}

// BenchmarkEngineReplace measures the §4.2 re-placement path: a fleet of
// jobs is held running by a large TimeScale while cluster updates force
// the dirty stages to re-solve synchronously on the loop. Each update
// pays real LP solves — the hot path basis warm-starting targets.
func BenchmarkEngineReplace(b *testing.B) {
	cl := cluster.EC2EightRegions()
	e, err := New(Config{
		Cluster:    cl,
		Placer:     place.Tetrium{},
		Policy:     sched.SRPT,
		Rho:        1,
		Eps:        1,
		MaxPending: 1 << 30,
		// Stages stay running across the whole measurement; re-placement
		// is only exercised on live placements.
		TimeScale: 3600,
	})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer e.Close()

	jobs := workload.Generate(workload.BigData(cl.N(), 16, 7))
	for _, j := range jobs {
		if _, err := e.Submit(j); err != nil {
			b.Fatalf("Submit: %v", err)
		}
	}
	// Wait for the async admission solves to commit. Jobs that arrive
	// once every slot is held stay unplaced (a pass with no free slot
	// places nothing), so the measurement covers the live placements of
	// the jobs that launched.
	quiesceLoop(b, e)
	js, err := e.Jobs()
	if err != nil {
		b.Fatalf("Jobs: %v", err)
	}
	running := 0
	for _, j := range js {
		if j.Phase == JobRunning {
			running++
		}
	}
	if running == 0 {
		b.Fatal("no job holds a live placement to re-place")
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frac := 0.3 + 0.2*float64(i%2)
		if _, err := e.UpdateCluster([]SiteUpdate{{Site: 0, Frac: frac}}); err != nil {
			b.Fatalf("UpdateCluster: %v", err)
		}
	}
	b.StopTimer()
}

// BenchmarkEngineBurstSubmit: concurrent submitters slam the admission
// path (instant completion), so the cost measured is admission +
// placement solve + dispatch under contention.
func BenchmarkEngineBurstSubmit(b *testing.B) {
	cl := cluster.EC2EightRegions()
	cfg := Config{
		Cluster:    cl,
		Placer:     place.Tetrium{},
		Policy:     sched.SRPT,
		Rho:        1,
		Eps:        1,
		MaxPending: 1 << 30,
	}
	e, err := New(cfg)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer e.Close()

	jobs := workload.Generate(workload.BigData(cl.N(), 16, 21))
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			j := jobs[int(next.Add(1))%len(jobs)]
			for {
				_, err := e.Submit(j)
				if errors.Is(err, ErrQueueFull) {
					time.Sleep(time.Millisecond)
					continue
				}
				if err != nil {
					b.Errorf("Submit: %v", err)
					return
				}
				break
			}
		}
	})
	b.StopTimer()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		b.Fatalf("Drain: %v", err)
	}
}

package main

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestPoissonTimesRateAndGaps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	window := 200 * time.Second
	ts := poissonTimes(rng, 300, window)
	// 60000 expected arrivals; a Poisson count's sd is about 245.
	if n := len(ts); math.Abs(float64(n)-60000) > 5*245 {
		t.Fatalf("got %d arrivals in %v at 300/s, want about 60000", n, window)
	}
	// Exponential gaps: mean 1/300 s, and about 1/e of them longer.
	longer, prev := 0, time.Duration(0)
	for i, at := range ts {
		if at < prev || at >= window {
			t.Fatalf("arrival %d at %v out of order or outside the window", i, at)
		}
		if float64(at-prev) > float64(time.Second)/300 {
			longer++
		}
		prev = at
	}
	if frac := float64(longer) / float64(len(ts)); math.Abs(frac-1/math.E) > 0.01 {
		t.Fatalf("%.3f of gaps exceed the mean gap, want %.3f", frac, 1/math.E)
	}
}

func TestPeriodicTimes(t *testing.T) {
	got := periodicTimes(250*time.Millisecond, 125*time.Millisecond, time.Second)
	want := []time.Duration{125e6, 375e6, 625e6, 875e6}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if got := periodicTimes(0, 0, time.Second); len(got) != 0 {
		t.Fatalf("period 0 gave %v, want none", got)
	}
}

func TestBuildScheduleDeterministicAndOrdered(t *testing.T) {
	m := mix{submitRate: 40, updateEvery: 250 * time.Millisecond, scrapeEvery: 250 * time.Millisecond}
	a := buildSchedule(3, 10*time.Second, m)
	b := buildSchedule(3, 10*time.Second, m)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, buildSchedule(4, 10*time.Second, m)) {
		t.Fatal("seeds 3 and 4 gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due {
			t.Fatalf("op %d due %v before op %d due %v", i, a[i].due, i-1, a[i-1].due)
		}
	}
	if n := countKind(a, opUpdate); n != 39 {
		t.Fatalf("%d updates in 10 s every 250 ms from 250 ms, want 39", n)
	}
	if n := countKind(a, opScrape); n != 40 {
		t.Fatalf("%d scrapes in 10 s every 250 ms from 125 ms, want 40", n)
	}
	// Submits are numbered 0..n-1 in due order: job i is submit i.
	next := 0
	for _, o := range a {
		if o.kind == opSubmit {
			if o.arg != next {
				t.Fatalf("submit for job %d where job %d was next", o.arg, next)
			}
			next++
		}
	}
}

func TestExecuteTimesFromDueTime(t *testing.T) {
	// Two connections, three requests due at once, each taking 20 ms:
	// the third waits for a connection, and that wait is its latency's,
	// not the generator's.
	ops := []op{{due: 0, arg: 0}, {due: 0, arg: 1}, {due: 0, arg: 2}}
	outs := execute(ops, func(int, op) outcome {
		time.Sleep(20 * time.Millisecond)
		return outcome{}
	})
	var slow int
	for _, o := range outs {
		if o.latency() >= 38*time.Millisecond {
			slow++
		}
		if o.genLag > 15*time.Millisecond {
			t.Errorf("op %d: generator lag %v while the wait was for a connection", o.op.arg, o.genLag)
		}
	}
	if slow != 1 {
		t.Fatalf("%d requests took two service times, want exactly the one that queued", slow)
	}
}

func TestJobNameRoundTrip(t *testing.T) {
	for _, i := range []int{0, 7, 12345} {
		if got := jobIndex(jobName(i)); got != i {
			t.Fatalf("jobIndex(jobName(%d)) = %d", i, got)
		}
	}
	for _, name := range []string{"q12", "pb-", "pb-x"} {
		if got := jobIndex(name); got != -1 {
			t.Fatalf("jobIndex(%q) = %d, want -1", name, got)
		}
	}
}

func TestTail(t *testing.T) {
	// 3000 samples of 1..1000 repeated: every 1000-sample stretch has
	// p99 = 990, and so has their median.
	var xs []float64
	for r := 0; r < 3; r++ {
		for i := 1; i <= 1000; i++ {
			xs = append(xs, float64(i))
		}
	}
	if got := tail(xs, 99); got != 990 {
		t.Fatalf("tail p99 = %v, want 990", got)
	}
	// A stall that fills one stretch's tail sets only that stretch's p99.
	for i := 0; i < 50; i++ {
		xs[i] = 1e6
	}
	if got := tail(xs, 99); got != 990 {
		t.Fatalf("tail p99 with one stalled stretch = %v, want 990", got)
	}
	if got := percentile(xs, 99); got != 1e6 {
		t.Fatalf("plain p99 with the stall = %v, want 1e6", got)
	}
	if got := tail([]float64{3, 1, 2}, 90); got != 3 {
		t.Fatalf("tail of too few samples = %v, want the plain percentile 3", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Fatal("percentile of nothing should be NaN")
	}
}

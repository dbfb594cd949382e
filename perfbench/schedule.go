package main

import (
	"math/rand"
	"sort"
	"time"
)

// opKind is what one scheduled request does.
type opKind uint8

const (
	opSubmit opKind = iota // POST /v1/jobs
	opUpdate               // POST /v1/cluster/update
	opScrape               // GET /metrics
)

func (k opKind) String() string {
	switch k {
	case opSubmit:
		return "submit"
	case opUpdate:
		return "update"
	default:
		return "scrape"
	}
}

// op is one request of an open-loop schedule. due is its intended send
// time, measured from the start of the window; arg is the job index for
// a submit and the sequence number of an update or scrape.
type op struct {
	due  time.Duration
	kind opKind
	arg  int
}

// mix is the offered load of a serving workload: Poisson job
// submissions at submitRate per second, plus cluster updates and
// /metrics scrapes at fixed periods (0 means none).
type mix struct {
	submitRate  float64
	updateEvery time.Duration
	scrapeEvery time.Duration
}

// poissonTimes draws the arrival times of a Poisson process of the given
// rate (per second) over [0, window).
func poissonTimes(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return out
		}
		out = append(out, d)
	}
}

// periodicTimes returns offset, offset+period, … up to (not including)
// window.
func periodicTimes(period, offset, window time.Duration) []time.Duration {
	var out []time.Duration
	if period <= 0 {
		return out
	}
	for t := offset; t < window; t += period {
		out = append(out, t)
	}
	return out
}

// buildSchedule lays out one window of offered load, ordered by due
// time. The same seed gives the same schedule. Scrapes sit half a period
// after updates so the two never share a due time.
func buildSchedule(seed int64, window time.Duration, m mix) []op {
	rng := rand.New(rand.NewSource(seed))
	var ops []op
	for i, t := range poissonTimes(rng, m.submitRate, window) {
		ops = append(ops, op{due: t, kind: opSubmit, arg: i})
	}
	for i, t := range periodicTimes(m.updateEvery, m.updateEvery, window) {
		ops = append(ops, op{due: t, kind: opUpdate, arg: i})
	}
	for i, t := range periodicTimes(m.scrapeEvery, m.scrapeEvery/2, window) {
		ops = append(ops, op{due: t, kind: opScrape, arg: i})
	}
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].due < ops[b].due })
	return ops
}

// countKind returns how many ops of kind k the schedule holds.
func countKind(ops []op, k opKind) int {
	n := 0
	for _, o := range ops {
		if o.kind == k {
			n++
		}
	}
	return n
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"tetrium"
	"tetrium/internal/cluster"
	"tetrium/internal/engine/api"
)

// serveWorkload is one serving workload: how tetrium-serve is started
// and what load it is offered.
type serveWorkload struct {
	name      string
	shards    int
	timeScale float64 // tetrium-serve -time-scale; 0 completes stages at once
	trace     tetrium.TraceKind
	load      mix
	// probeUpdates and probeScrapes are how many cluster updates and
	// /metrics scrapes are sent one at a time after the window, for a
	// workload whose window sends none of its own.
	probeUpdates, probeScrapes int
}

var (
	// admit: one engine, no residents, no updates or scrapes in the
	// window, so every job is pure admission and placement work.
	admit = serveWorkload{
		name: "admit", shards: 1, timeScale: 0, trace: tetrium.TraceTPCDS,
		load:         mix{submitRate: 200},
		probeUpdates: 400, probeScrapes: 120,
	}
	// churn: two shards behind the router, jobs resident for a while,
	// and a §4.2 update and a scrape every 250 ms beside the writes.
	churn = serveWorkload{
		name: "churn", shards: 2, timeScale: 0.00025, trace: tetrium.TraceBigData,
		load: mix{submitRate: 40, updateEvery: 250 * time.Millisecond, scrapeEvery: 250 * time.Millisecond},
	}
)

const (
	// clusterPreset is tetrium-serve's default cluster.
	clusterPreset = "ec2-8"
	// setupLaunches is how many times a run starts the server to time
	// its set-up; the last start serves the window.
	setupLaunches = 15
	// genLagLimit is how late the generator itself may send its 99th
	// percentile request before the run is declared invalid: beyond it
	// requests leave in bursts several arrival gaps wide, and the
	// generator, not the server, shapes the load.
	genLagLimit = 20 * time.Millisecond
	// drainLimit bounds the wait for admitted jobs to finish after the
	// window.
	drainLimit = 60 * time.Second
)

func (wl serveWorkload) args(journal string) []string {
	return []string{
		"-addr", "127.0.0.1:0",
		"-cluster", clusterPreset,
		"-journal", journal,
		"-time-scale", strconv.FormatFloat(wl.timeScale, 'g', -1, 64),
		"-shards", strconv.Itoa(wl.shards),
	}
}

// inputs is everything a serving run sends, generated from the seed
// before the server starts.
type inputs struct {
	ops    []op
	bodies [][]byte // POST /v1/jobs body of job i
	sites  []cluster.Site
}

func jobName(i int) string { return "pb-" + strconv.Itoa(i) }

// jobIndex inverts jobName; it returns -1 for a name it did not make.
func jobIndex(name string) int {
	s, ok := strings.CutPrefix(name, "pb-")
	if !ok {
		return -1
	}
	i, err := strconv.Atoi(s)
	if err != nil {
		return -1
	}
	return i
}

func makeInputs(wl serveWorkload, seed int64, window time.Duration) (*inputs, error) {
	cl, err := cluster.Preset(clusterPreset, 1)
	if err != nil {
		return nil, err
	}
	in := &inputs{ops: buildSchedule(seed, window, wl.load), sites: cl.Sites}
	n := countKind(in.ops, opSubmit)
	jobs := tetrium.GenerateTrace(wl.trace, cl, n, seed)
	if len(jobs) != n {
		return nil, fmt.Errorf("generated %d jobs, want %d", len(jobs), n)
	}
	in.bodies = make([][]byte, n)
	for i, j := range jobs {
		j.Name = jobName(i)
		if in.bodies[i], err = json.Marshal(api.FromWorkload(j)); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// updateBody is the k-th cluster update: updates come in pairs that
// drop one site to half its capacity and then restore it, cycling over
// the sites.
func (in *inputs) updateBody(k int) []byte {
	site := (k / 2) % len(in.sites)
	var u api.SiteUpdate
	if k%2 == 0 {
		u = api.SiteUpdate{Site: site, Frac: 0.5}
	} else {
		s := in.sites[site]
		u = api.SiteUpdate{Site: site, Slots: &s.Slots, UpBW: &s.UpBW, DownBW: &s.DownBW}
	}
	b, err := json.Marshal(api.UpdateRequest{Sites: []api.SiteUpdate{u}})
	if err != nil {
		panic(err) // a fixed struct of numbers always marshals
	}
	return b
}

// sender returns the function execute calls for each scheduled request.
func (in *inputs) sender(c *client, base string) func(int, op) outcome {
	return func(seq int, o op) outcome {
		var out outcome
		switch o.kind {
		case opSubmit:
			out.jobID, out.err = c.submit(base, in.bodies[o.arg], seq)
		case opUpdate:
			out.replaced, out.err = c.update(base, in.updateBody(o.arg), seq)
		case opScrape:
			out.bytes, out.active, out.err = c.scrape(base, seq)
		}
		return out
	}
}

// serverProc is a running tetrium-serve.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	setup  time.Duration // start until /readyz first answered 200
	exited chan struct{} // closed once Wait has returned
}

// bannerWriter takes the server's standard output and hands over the
// address from its "listening on" banner.
type bannerWriter struct {
	mu    sync.Mutex
	buf   []byte
	found bool
	addr  chan string // buffered: receives at most one address
}

func (w *bannerWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.found {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	const marker = "listening on "
	if i := bytes.Index(w.buf, []byte(marker)); i >= 0 {
		rest := w.buf[i+len(marker):]
		if j := bytes.IndexAny(rest, " \n"); j >= 0 {
			w.found = true
			w.addr <- string(rest[:j])
			w.buf = nil
		}
	}
	return len(p), nil
}

// launch starts tetrium-serve and waits until /readyz answers 200.
func launch(bin string, args []string, c *client) (*serverProc, error) {
	bw := &bannerWriter{addr: make(chan string, 1)}
	cmd := exec.Command(filepath.Join(bin, "tetrium-serve"), args...)
	cmd.Stdout = bw
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start tetrium-serve: %w", err)
	}
	p := &serverProc{cmd: cmd, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read from cmd.ProcessState
		close(p.exited)
	}()
	select {
	case addr := <-bw.addr:
		p.base = "http://" + addr
	case <-p.exited:
		return nil, errors.New("tetrium-serve exited before listening")
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, errors.New("tetrium-serve did not start listening within 60s")
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, _, err := c.request("GET", p.base+"/readyz", nil, -1)
		if err == nil && code == 200 {
			p.setup = time.Since(t0)
			return p, nil
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("tetrium-serve not ready within 60s (last status %d, err %v)", code, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the server down gracefully and waits for it to exit.
func (p *serverProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return fmt.Errorf("signal tetrium-serve: %w", err)
	}
	select {
	case <-p.exited:
	case <-time.After(30 * time.Second):
		p.kill()
		return errors.New("tetrium-serve did not stop within 30s of SIGTERM")
	}
	if !p.cmd.ProcessState.Success() {
		return fmt.Errorf("tetrium-serve: %s", p.cmd.ProcessState)
	}
	return nil
}

// kill ends the server at once, if it still runs, and waits for it.
func (p *serverProc) kill() {
	select {
	case <-p.exited:
		return
	default:
	}
	_ = p.cmd.Process.Kill() // it may have exited since the check
	<-p.exited
}

// clockTick is the unit of the CPU times in /proc/stat: USER_HZ is 100
// on Linux.
const clockTick = 10 * time.Millisecond

// cpuTime reads the CPU time all threads of a process have used, to the
// nanosecond, from the process's CPU-time clock (clock_getcpuclockid).
// Time the hypervisor gave to other guests is not in it.
func cpuTime(pid int) (time.Duration, error) {
	clock := (^pid)<<3 | 2 // MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("CPU clock of process %d: %w", pid, errno)
	}
	return time.Duration(ts.Nano()), nil
}

// peakRSS reads a process's peak resident set (VmHWM) in MB.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: VmHWM: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// waitIdle polls /v1/cluster until no admitted job is left unfinished.
func waitIdle(c *client, base string) error {
	deadline := time.Now().Add(drainLimit)
	for {
		var cs api.ClusterStatus
		if err := c.getJSON(base+"/v1/cluster", &cs); err != nil {
			return err
		}
		if cs.ActiveJobs == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d jobs still active %s after the window", cs.ActiveJobs, drainLimit)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// hostSteal reads the CPU time the hypervisor gave to other guests
// (the steal column of /proc/stat), summed over CPUs. A run whose steal
// share is high ran on a busy host.
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * clockTick
}

// hostShare is steal as a share of the CPU time all CPUs had over wall.
func hostShare(steal, wall time.Duration) float64 {
	return ratio(steal.Seconds(), wall.Seconds()*float64(runtime.NumCPU()))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}

// windowRun is what one pass of the schedule against a server measured.
type windowRun struct {
	outs    []outcome
	probes  []outcome // admit's post-window updates and scrapes
	jobs    int       // jobs accepted, all finished once the run is over
	cpu     time.Duration
	wall    time.Duration // first send until the last job finished
	updates int           // successful cluster updates, window and probes
}

// drive runs the schedule against base and waits for the admitted jobs
// to finish. cpu reads the server's CPU time; it is nil for the
// in-process traced stack.
func drive(in *inputs, c *client, base string, cpu func() (time.Duration, error), rep *report) (*windowRun, error) {
	var cs api.ClusterStatus
	if err := c.getJSON(base+"/v1/cluster", &cs); err != nil {
		return nil, fmt.Errorf("GET /v1/cluster: %w", err)
	}
	if len(cs.Sites) != len(in.sites) {
		return nil, fmt.Errorf("server has %d sites, inputs were made for %d", len(cs.Sites), len(in.sites))
	}
	wr := &windowRun{}
	var cpu0 time.Duration
	if cpu != nil {
		var err error
		if cpu0, err = cpu(); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	wr.outs = execute(in.ops, in.sender(c, base))
	if err := waitIdle(c, base); err != nil {
		rep.fail("drain: %v", err)
	}
	wr.wall = time.Since(t0)
	if cpu != nil {
		cpu1, err := cpu()
		if err != nil {
			return nil, err
		}
		wr.cpu = cpu1 - cpu0
	}
	for _, o := range wr.outs {
		if o.err == nil && o.op.kind == opSubmit {
			wr.jobs++
		}
		if o.err == nil && o.op.kind == opUpdate {
			wr.updates++
		}
	}
	return wr, nil
}

// probe sends the post-window updates, then the post-window scrapes,
// one at a time. Each is timed from its own send: nothing queues behind
// it.
func probe(wl serveWorkload, in *inputs, c *client, base string, wr *windowRun) {
	send := in.sender(c, base)
	seq := len(in.ops)
	run := func(kind opKind, n int) {
		for k := 0; k < n; k++ {
			o := op{kind: kind, arg: k}
			t := time.Now()
			out := send(seq, o)
			out.op, out.seq = o, seq
			out.done = time.Since(t)
			wr.probes = append(wr.probes, out)
			if kind == opUpdate && out.err == nil {
				wr.updates++
			}
			seq++
		}
	}
	run(opUpdate, wl.probeUpdates)
	run(opScrape, wl.probeScrapes)
}

// windowOrProbes applies f to the window's requests of one kind, or to
// the probes' when the window sent none: churn's scrapes run beside its
// writes, admit's only after the window.
func windowOrProbes(wr *windowRun, k opKind, f func([]outcome, opKind) []float64) []float64 {
	if xs := f(wr.outs, k); len(xs) > 0 {
		return xs
	}
	return f(wr.probes, k)
}

// latencies returns the latencies, in ms, of the successful requests of
// one kind.
func latencies(outs []outcome, k opKind) []float64 {
	var xs []float64
	for _, o := range outs {
		if o.op.kind == k && o.err == nil {
			xs = append(xs, ms(o.latency()))
		}
	}
	return xs
}

// checkJobs lists every job and checks that each accepted job appears
// exactly once, under its own name, and is done. It returns the listing
// by job id.
func checkJobs(c *client, base string, outs []outcome, rep *report) map[int]api.JobStatus {
	var list []api.JobStatus
	if err := c.getJSON(base+"/v1/jobs", &list); err != nil {
		rep.fail("GET /v1/jobs: %v", err)
		rep.failed++
		return nil
	}
	byID := make(map[int]api.JobStatus, len(list))
	for _, st := range list {
		if _, dup := byID[st.ID]; dup {
			rep.fail("job %d listed twice", st.ID)
			rep.failed++
		}
		byID[st.ID] = st
	}
	accepted := 0
	bad := 0
	for _, o := range outs {
		if o.op.kind != opSubmit || o.err != nil {
			continue
		}
		accepted++
		st, ok := byID[o.jobID]
		switch {
		case !ok:
			bad++
			if bad <= 3 {
				rep.fail("accepted job %d (%s) is not listed", o.jobID, jobName(o.op.arg))
			}
		case st.Name != jobName(o.op.arg):
			bad++
			if bad <= 3 {
				rep.fail("job %d is listed as %q, was submitted as %q", o.jobID, st.Name, jobName(o.op.arg))
			}
		case st.State != "done":
			bad++
			if bad <= 3 {
				rep.fail("job %d (%s) is %q after the run, want done", o.jobID, st.Name, st.State)
			}
		}
	}
	if bad > 3 {
		rep.fail("%d accepted jobs in all failed the listing check", bad)
	}
	if len(byID) != accepted {
		rep.fail("server lists %d jobs, the benchmark had %d accepted", len(byID), accepted)
	}
	rep.failed += bad
	return byID
}

// countFailures adds the requests to the report's attempted count and
// the failed ones to its failed count, and prints the first few errors.
func countFailures(outs []outcome, rep *report) {
	shown := 0
	for _, o := range outs {
		rep.attempted++
		if o.err != nil {
			rep.failed++
			if shown < 3 {
				fmt.Fprintf(os.Stderr, "perfbench: %s request failed: %v\n", o.op.kind, o.err)
				shown++
			}
		}
	}
}

// lateness adds the generator's lateness over the window to the report
// and marks the run invalid when the generator was the bottleneck.
func lateness(outs []outcome, rep *report, prefix string) {
	var send, gen []float64
	for _, o := range outs {
		send = append(send, ms(o.start-o.op.due))
		gen = append(gen, ms(o.genLag))
	}
	sendP99, genP99 := percentile(send, 99), percentile(gen, 99)
	rep.info = append(rep.info,
		named{prefix + "loadgen.send_lag_p99_ms", "ms", sendP99},
		named{prefix + "loadgen.send_lag_max_ms", "ms", percentile(send, 100)},
		named{prefix + "loadgen.gen_lag_p99_ms", "ms", genP99},
		named{prefix + "loadgen.gen_lag_max_ms", "ms", percentile(gen, 100)},
	)
	if genP99 > ms(genLagLimit) {
		rep.fail("run invalid: the generator sent its p99 request %.2f ms late with a connection free (limit %v)", genP99, genLagLimit)
	}
}

// runServe runs one serving workload: the untraced run against the real
// binary, and with cfg.traced a second, traced run of the same stack in
// process.
func runServe(wl serveWorkload, cfg runConfig) (*report, error) {
	window := time.Duration(cfg.seconds) * time.Second
	in, err := makeInputs(wl, cfg.seed, window)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-seed%d-pid%d", wl.name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	c := newClient()
	rep := &report{}
	e2e, counters, err := serveUntraced(wl, cfg, in, c, dir, rep)
	if err != nil {
		return nil, err
	}
	rep.e2e = e2e
	if cfg.traced {
		layers, err := serveTraced(wl, cfg, in, c, dir, e2e, rep)
		if err != nil {
			return nil, err
		}
		rep.layer = append(layers, counters...)
		sortNamed(rep.layer)
	}
	return rep, nil
}

// timeSetups starts and stops the server setupLaunches times, each on a
// fresh journal, and returns each start's time until /readyz said 200.
func timeSetups(wl serveWorkload, cfg runConfig, c *client, dir string) ([]float64, error) {
	var setups []float64
	for i := 0; i < setupLaunches; i++ {
		jdir := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(jdir, 0o755); err != nil {
			return nil, err
		}
		p, err := launch(cfg.bin, wl.args(filepath.Join(jdir, "journal")), c)
		if err != nil {
			return nil, err
		}
		setups = append(setups, p.setup.Seconds())
		err = p.stop()
		c.tr.CloseIdleConnections()
		if err != nil {
			return nil, err
		}
	}
	return setups, nil
}

// serveUntraced measures the end-to-end metrics on tetrium-serve and
// harvests its counters once the window is over.
func serveUntraced(wl serveWorkload, cfg runConfig, in *inputs, c *client, dir string, rep *report) (e2e, counters []named, err error) {
	setups, err := timeSetups(wl, cfg, c, dir)
	if err != nil {
		return nil, nil, err
	}
	jdir := filepath.Join(dir, "window")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		return nil, nil, err
	}
	srv, err := launch(cfg.bin, wl.args(filepath.Join(jdir, "journal")), c)
	if err != nil {
		return nil, nil, err
	}
	defer srv.kill()
	pid := srv.cmd.Process.Pid
	steal0, t0 := hostSteal(), time.Now()

	wr, err := drive(in, c, srv.base, func() (time.Duration, error) { return cpuTime(pid) }, rep)
	if err != nil {
		return nil, nil, err
	}
	rss, err := peakRSS(pid)
	if err != nil {
		return nil, nil, err
	}
	code, txt, err := c.request("GET", srv.base+"/metrics.txt", nil, -1)
	if err != nil || code != 200 {
		return nil, nil, fmt.Errorf("GET /metrics.txt: status %d, %v", code, err)
	}
	reg, err := parseRegistry(string(txt))
	if err != nil {
		rep.fail("%v", err)
	}
	probe(wl, in, c, srv.base, wr)
	rep.info = append(rep.info, named{"host.steal_pct", "%", 100 * hostShare(hostSteal()-steal0, time.Since(t0))})
	listing := checkJobs(c, srv.base, wr.outs, rep)
	if err := srv.stop(); err != nil {
		rep.fail("%v", err)
	}
	c.tr.CloseIdleConnections()
	jbytes, err := dirBytes(jdir)
	if err != nil {
		return nil, nil, err
	}
	countFailures(wr.outs, rep)
	countFailures(wr.probes, rep)
	lateness(wr.outs, rep, "")

	all := append(append([]outcome(nil), wr.outs...), wr.probes...)
	ack := latencies(wr.outs, opSubmit)
	upd := windowOrProbes(wr, opUpdate, latencies)
	scr := windowOrProbes(wr, opScrape, latencies)
	nAck, nUpd, nScr := len(ack), len(upd), len(scr)
	for _, s := range []struct {
		name string
		n    int
		q    float64
	}{{"ack", nAck, 99}, {"update", nUpd, 90}, {"scrape", nScr, 90}} {
		if !tailOK(s.n, s.q) {
			fmt.Printf("# warning: %s: %d samples leave fewer than 10 beyond p%g; run longer\n", s.name, s.n, s.q)
		}
	}
	var place, jct []float64
	for _, o := range wr.outs {
		if st, ok := listing[o.jobID]; ok && o.op.kind == opSubmit && o.err == nil {
			place = append(place, st.SubmitToPlaceMs)
			jct = append(jct, st.ResponseSeconds*1000)
		}
	}
	e2e = []named{
		{"setup_s", "s", median(setups)},
		{"cpu_ms_per_job", "ms", ratio(ms(wr.cpu), float64(wr.jobs))},
		{"rss_peak_mb", "MB", rss},
		{"ack_p50_ms", "ms", median(ack)},
		{"ack_p99_ms", "ms", tail(ack, 99)},
		{"update_p50_ms", "ms", median(upd)},
		{"update_p90_ms", "ms", tail(upd, 90)},
		{"scrape_p50_ms", "ms", median(scr)},
		{"scrape_p90_ms", "ms", tail(scr, 90)},
		{"place_p50_ms", "ms", median(place)},
		{"place_p99_ms", "ms", tail(place, 99)},
		{"jct_p50_ms", "ms", median(jct)},
		{"jct_p99_ms", "ms", tail(jct, 99)},
		{"jobs_s", "1/s", float64(wr.jobs) / wr.wall.Seconds()},
	}

	var lastScrape float64
	var active []float64
	for _, o := range all {
		if o.op.kind == opScrape && o.err == nil {
			lastScrape = float64(o.bytes)
			active = append(active, o.active)
		}
	}
	rep.info = append(rep.info,
		named{"samples.ack", "count", float64(nAck)},
		named{"samples.update", "count", float64(nUpd)},
		named{"samples.scrape", "count", float64(nScr)},
		named{"resident_jobs.mean", "count", mean(active)},
	)
	counters = counterLayers(reg, wr.jobs, wr.updates)
	counters = append(counters,
		named{"journal.bytes_per_job", "B", ratio(float64(jbytes), float64(wr.jobs))},
		named{"obs.scrape_bytes", "B", lastScrape},
	)
	if wl.shards > 1 {
		counters = append(counters, federationLayers(reg)...)
	}
	return e2e, counters, nil
}

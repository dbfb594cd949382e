package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// connections is how many HTTP connections the benchmark process opens
// to the server at most, in every phase: the machine it was sized on has
// two cores, shared between the generator and the server.
const connections = 2

// opHeader carries a request's sequence number, so a traced run can join
// the client's timing of a request with the handler's.
const opHeader = "Perfbench-Op"

// client is the benchmark's only HTTP client.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient() *client {
	tr := &http.Transport{
		MaxConnsPerHost:     connections,
		MaxIdleConnsPerHost: connections,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, tr: tr}
}

// request sends one request and reads the whole response.
func (c *client) request(method, url string, body []byte, seq int) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if seq >= 0 {
		req.Header.Set(opHeader, strconv.Itoa(seq))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// outcome is what happened to one scheduled request. Times are measured
// from the start of the window.
type outcome struct {
	op     op
	seq    int           // the request's sequence number (opHeader)
	start  time.Duration // a connection took the request
	done   time.Duration // the response was read and checked
	genLag time.Duration // how late the generator itself was
	err    error         // nil when the request succeeded and its body checked out

	jobID    int     // submit: the id the server assigned
	replaced int     // update: stages the server re-placed
	bytes    int     // scrape: body size
	active   float64 // scrape: jobs admitted and not yet finished
}

// latency is the request's time from when it was due to when its
// response was in, so a stall is charged to every request it delays,
// less genLag: the host's timer wakes the generator late by a few
// milliseconds at times, and that is the benchmark's error, not the
// server's.
func (o outcome) latency() time.Duration { return o.done - o.op.due - o.genLag }

// execute runs ops open loop: each request leaves at its due time
// whatever happened to earlier ones, over at most two connections. When
// both connections are busy a request waits for one, and that wait is
// the server's doing; genLag is only the part of a request's lateness
// when a connection was free, which is the generator's own.
func execute(ops []op, send func(seq int, o op) outcome) []outcome {
	outs := make([]outcome, len(ops))
	start := time.Now()
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			idle := time.Duration(0)
			for i := range work {
				took := time.Since(start)
				out := send(i, ops[i])
				out.op, out.seq = ops[i], i
				out.start = took
				out.genLag = took - max(ops[i].due, idle)
				out.done = time.Since(start)
				outs[i] = out
				idle = out.done
			}
		}()
	}
	for i := range ops {
		if d := ops[i].due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return outs
}

// submit posts one job and returns the id from its 202.
func (c *client) submit(base string, body []byte, seq int) (int, error) {
	code, resp, err := c.request(http.MethodPost, base+"/v1/jobs", body, seq)
	if err != nil {
		return 0, err
	}
	if code != http.StatusAccepted {
		return 0, fmt.Errorf("POST /v1/jobs: status %d: %s", code, bytes.TrimSpace(resp))
	}
	var st struct {
		ID *int `json:"id"`
	}
	if err := json.Unmarshal(resp, &st); err != nil || st.ID == nil {
		return 0, fmt.Errorf("POST /v1/jobs: bad body %q", resp)
	}
	return *st.ID, nil
}

// update posts one cluster update and returns the stages re-placed.
func (c *client) update(base string, body []byte, seq int) (int, error) {
	code, resp, err := c.request(http.MethodPost, base+"/v1/cluster/update", body, seq)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("POST /v1/cluster/update: status %d: %s", code, bytes.TrimSpace(resp))
	}
	var ur struct {
		StagesReplaced *int `json:"stages_replaced"`
	}
	if err := json.Unmarshal(resp, &ur); err != nil || ur.StagesReplaced == nil {
		return 0, fmt.Errorf("POST /v1/cluster/update: bad body %q", resp)
	}
	return *ur.StagesReplaced, nil
}

// scrape fetches /metrics and checks that it parses as the Prometheus
// text format; it returns the body size and the active-jobs gauge.
func (c *client) scrape(base string, seq int) (int, float64, error) {
	code, resp, err := c.request(http.MethodGet, base+"/metrics", nil, seq)
	if err != nil {
		return 0, 0, err
	}
	if code != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /metrics: status %d", code)
	}
	samples, err := parsePrometheus(resp)
	if err != nil {
		return 0, 0, fmt.Errorf("GET /metrics: %w", err)
	}
	return len(resp), samples["tetrium_jobs_active"], nil
}

// getJSON fetches url and decodes its 200 body into v.
func (c *client) getJSON(url string, v any) error {
	code, resp, err := c.request(http.MethodGet, url, nil, -1)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, code)
	}
	return json.Unmarshal(resp, v)
}

// parsePrometheus parses a Prometheus text exposition into its samples,
// keyed by the text before the value, and fails unless every sample
// line ends in a number and there is at least one.
func parsePrometheus(body []byte) (map[string]float64, error) {
	samples := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("sample line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("sample line %q: %w", line, err)
		}
		samples[strings.TrimSpace(line[:i])] = v
	}
	if len(samples) == 0 {
		return nil, errors.New("no samples")
	}
	return samples, nil
}

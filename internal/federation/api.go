package federation

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"tetrium/internal/engine"
	"tetrium/internal/engine/api"
	"tetrium/internal/fleet"
)

// Handler serves a Federation over HTTP with the same surface as the
// single-engine api.Handler, plus GET /v1/federation for per-shard
// routing state, POST /v1/jobs's Idempotency-Key, and /v1/analytics
// when the single shard feeds a *fleet.Store. Differences from the
// single-engine surface:
//
//   - job IDs are federation IDs (shard-local ID · shards + shard);
//   - /metrics and /metrics.txt are the merged fleet registry;
//   - /debug/events merges the shard streams by timestamp; each JSONL
//     line carries a "shard" field, and the ?since cursor (and the
//     Tetrium-Events-Next header) is a colon-separated per-shard
//     cursor vector like "120:98";
//   - /readyz degrades rather than flips: it reports ready while at
//     least one shard is, with the not-ready shards named in the body.
func Handler(f *Federation) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec api.JobSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		job, err := spec.ToWorkload()
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		// An Idempotency-Key makes retrying this POST safe: replays of an
		// already-admitted key return the original job (200 with
		// Tetrium-Idempotent-Replay: true) instead of admitting a twin,
		// across router restarts and shard crash-recovery.
		st, dup, err := f.SubmitIdem(job, r.Header.Get("Idempotency-Key"))
		if err != nil {
			writeFedErr(f, w, err)
			return
		}
		if dup {
			w.Header().Set("Tetrium-Idempotent-Replay", "true")
			writeJSON(w, http.StatusOK, api.WireJob(st))
			return
		}
		writeJSON(w, http.StatusAccepted, api.WireJob(st))
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		sts, err := f.Jobs()
		if err != nil {
			writeFedErr(f, w, err)
			return
		}
		out := make([]api.JobStatus, 0, len(sts))
		for _, st := range sts {
			out = append(out, api.WireJob(st))
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		st, err := f.Job(id)
		if err != nil {
			writeFedErr(f, w, err)
			return
		}
		writeJSON(w, http.StatusOK, api.WireJob(st))
	})
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		cs, err := f.Cluster()
		if err != nil {
			writeFedErr(f, w, err)
			return
		}
		writeJSON(w, http.StatusOK, api.WireCluster(cs))
	})
	mux.HandleFunc("POST /v1/cluster/update", func(w http.ResponseWriter, r *http.Request) {
		var req api.UpdateRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		ups := make([]engine.SiteUpdate, 0, len(req.Sites))
		for _, u := range req.Sites {
			ups = append(ups, u.ToEngine())
		}
		replaced, err := f.UpdateCluster(ups)
		if err != nil {
			if errors.Is(err, ErrNoShards) || errors.Is(err, engine.ErrStopped) {
				writeFedErr(f, w, err)
			} else {
				writeErr(w, http.StatusBadRequest, err)
			}
			return
		}
		writeJSON(w, http.StatusOK, api.UpdateResponse{StagesReplaced: replaced})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		reg, err := f.MetricsRegistry()
		if err != nil {
			writeFedErr(f, w, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w, "tetrium")
	})
	mux.HandleFunc("GET /metrics.txt", func(w http.ResponseWriter, r *http.Request) {
		reg, err := f.MetricsRegistry()
		if err != nil {
			writeFedErr(f, w, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		reg.WriteText(w)
	})
	mux.HandleFunc("GET /debug/events", func(w http.ResponseWriter, r *http.Request) {
		var cursors []int64
		if sinceStr := r.URL.Query().Get("since"); sinceStr != "" {
			var err error
			cursors, err = ParseCursor(sinceStr, f.NumShards())
			if err != nil {
				writeErr(w, http.StatusBadRequest, err)
				return
			}
		}
		evs, next, missed, err := f.EventsSince(cursors)
		if err != nil {
			writeFedErr(f, w, err)
			return
		}
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		w.Header().Set("Tetrium-Events-Next", FormatCursor(next))
		w.Header().Set("Tetrium-Events-Missed", strconv.FormatInt(missed, 10))
		writeShardJSONL(w, evs)
	})
	// The analytics store outlives shard restarts, so the route is bound
	// once; it exists only at one shard (the store's job IDs are
	// shard-local).
	if st, ok := f.Shard(0).Analytics().(*fleet.Store); ok && f.NumShards() == 1 {
		mux.Handle("/v1/analytics/", http.StripPrefix("/v1/analytics", fleet.Routes(st)))
	}
	mux.HandleFunc("GET /v1/federation", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, federationStatus(f))
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if !f.Healthy() {
			writeErr(w, http.StatusServiceUnavailable, ErrNoShards)
			return
		}
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		ok, reason := f.Ready()
		if !ok {
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: reason})
			return
		}
		w.Write([]byte(reason + "\n"))
	})
	return mux
}

// FormatCursor renders a per-shard cursor vector as "c0:c1:…".
func FormatCursor(cursors []int64) string {
	parts := make([]string, len(cursors))
	for i, c := range cursors {
		parts[i] = strconv.FormatInt(c, 10)
	}
	return strings.Join(parts, ":")
}

// ParseCursor parses a "c0:c1:…" cursor vector and validates its arity
// against the shard count. The bare "0" of the single-engine
// ?since=0 idiom is accepted as "from the beginning" regardless of
// shard count; any other scalar is ambiguous and rejected.
func ParseCursor(s string, shards int) ([]int64, error) {
	if s == "0" {
		return make([]int64, shards), nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != shards {
		return nil, fmt.Errorf("federation: cursor %q wants %d colon-separated fields", s, shards)
	}
	out := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("federation: bad cursor field %q in %q", p, s)
		}
		out[i] = v
	}
	return out, nil
}

// writeShardJSONL writes the merged stream as JSON Lines; each line is
// the single-engine format with a leading shard tag:
// {"shard":0,"k":"<kind>","e":{…}}.
func writeShardJSONL(w http.ResponseWriter, evs []ShardEvent) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, se := range evs {
		rec := struct {
			Shard int         `json:"shard"`
			K     string      `json:"k"`
			E     interface{} `json:"e"`
		}{se.Shard, se.Event.Kind(), se.Event}
		if err := enc.Encode(rec); err != nil {
			return
		}
	}
	bw.Flush()
}

// ShardStatus is one shard's row in the GET /v1/federation response.
type ShardStatus struct {
	Shard      int    `json:"shard"`
	Ready      bool   `json:"ready"`
	Reason     string `json:"reason,omitempty"`
	ActiveJobs int    `json:"active_jobs"`
	MaxPending int    `json:"max_pending"`
	RetryAfter int    `json:"retry_after_s"`
	// Health is the supervisor's verdict (healthy/suspect/down/
	// restarting/parked); absent without supervision.
	Health string `json:"health,omitempty"`
	// HealthReason explains any non-healthy state.
	HealthReason string `json:"health_reason,omitempty"`
	// Generation is the shard's current journal epoch (journaled
	// deployments only).
	Generation int `json:"generation,omitempty"`
	// PanicsRecovered counts panics this shard instance contained.
	PanicsRecovered int64 `json:"panics_recovered,omitempty"`
}

// FederationStatus is the GET /v1/federation response.
type FederationStatus struct {
	Shards       int           `json:"shards"`
	ShardMap     string        `json:"shard_map"`
	Journal      bool          `json:"journaled"`
	Supervised   bool          `json:"supervised"`
	AutoRestarts int64         `json:"auto_restarts,omitempty"`
	Members      []ShardStatus `json:"members"`
}

func federationStatus(f *Federation) FederationStatus {
	out := FederationStatus{
		Shards:     f.NumShards(),
		ShardMap:   f.ShardMapName(),
		Journal:    f.cfg.JournalPath != "",
		Supervised: f.sv != nil,
	}
	if f.sv != nil {
		out.AutoRestarts = f.sv.autoRestarts.Load()
	}
	for i := 0; i < f.NumShards(); i++ {
		e := f.Shard(i)
		ss := ShardStatus{Shard: i}
		ok, reason := e.Ready()
		ss.Ready = ok
		if !ok {
			ss.Reason = reason
		}
		if cs, err := e.Cluster(); err == nil {
			ss.ActiveJobs = cs.ActiveJobs
			ss.MaxPending = cs.MaxPending
		} else {
			ss.Reason = "stopped"
		}
		ss.RetryAfter = e.RetryAfter()
		ss.Generation = e.JournalGeneration()
		ss.PanicsRecovered = e.PanicsRecovered()
		if f.sv != nil {
			st, why, _ := f.sv.statusOf(i)
			ss.Health = st.String()
			ss.HealthReason = why
			if st != Healthy {
				ss.Ready = st == Suspect && ss.Ready
			}
		}
		out.Members = append(out.Members, ss)
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// writeFedErr maps federation/engine sentinels to HTTP semantics:
// all-shards-full is 429 with the max-of-shards Retry-After hint;
// unavailable fleets 503 with — under supervision — an honest
// Retry-After derived from the shortest scheduled restart-backoff
// deadline (no header when nothing is scheduled, e.g. every unhealthy
// shard is breaker-parked); unknown IDs 404; anything else 400.
func writeFedErr(f *Federation, w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, engine.ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(f.RetryAfter()))
		writeErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, engine.ErrDraining), errors.Is(err, engine.ErrStopped),
		errors.Is(err, engine.ErrPanicked), errors.Is(err, ErrNoShards):
		if secs, ok := f.UnhealthyRetryAfter(); ok {
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		writeErr(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, engine.ErrNotFound):
		writeErr(w, http.StatusNotFound, err)
	default:
		writeErr(w, http.StatusBadRequest, err)
	}
}

// errorBody is every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

package fleet

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// Routes serves the analytics reports over HTTP/JSON. The handler is
// mounted under /v1/analytics by the engine API (when the engine is
// configured with a Store) and served standalone by cmd/tetrium-fleet:
//
//	GET /resource-hogs?top=N        top consumers by slot-seconds / WAN bytes
//	GET /efficiency                 speculation payoff, waste, LP solve counts
//	GET /estimate-accuracy          rolling estimate-vs-actual error percentiles
//	GET /capacity/usage-trends?windows=N   windowed per-site slot/WAN usage
//	GET /summary                    all of the above plus fleet totals
//	GET /                           endpoint index
func Routes(s *Store) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /resource-hogs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.ResourceHogs(queryInt(r, "top", 10)))
	})
	mux.HandleFunc("GET /efficiency", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Efficiency())
	})
	mux.HandleFunc("GET /estimate-accuracy", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.EstimateAccuracy())
	})
	mux.HandleFunc("GET /capacity/usage-trends", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.UsageTrends(queryInt(r, "windows", 0)))
	})
	mux.HandleFunc("GET /summary", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Summary())
	})
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string][]string{"endpoints": {
			"resource-hogs", "efficiency", "estimate-accuracy",
			"capacity/usage-trends", "summary",
		}})
	})
	return mux
}

func queryInt(r *http.Request, key string, def int) int {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(v)
}

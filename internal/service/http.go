// qurkd's HTTP/JSON API.
//
//	POST   /v1/queries            submit; returns the query ID
//	GET    /v1/queries            list query snapshots
//	GET    /v1/queries/{id}       one query's status
//	GET    /v1/queries/{id}/rows  stream result rows as NDJSON
//	DELETE /v1/queries/{id}       cancel
//	GET    /v1/tenants            list tenants
//	GET    /v1/tenants/{id}       one tenant's budget and spend
//	GET    /v1/store              shared answer-store statistics
//	GET    /v1/status             circuit/recovery health detail
//	GET    /healthz               liveness (process is up)
//	GET    /readyz                readiness (recovered, circuits closed)
//
// The rows stream is a chunked response that follows a running query
// live: each line is one result row, and the final line reports the
// terminal state — so a client sees rows as crowd work completes, not
// when the query finishes.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"qurk/internal/answerstore"
	"qurk/internal/core"
	"qurk/internal/join"
	"qurk/internal/relation"
)

// Handler returns the service's HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	// Liveness and readiness are deliberately split: a daemon replaying
	// journals or riding out a marketplace outage is alive (do not
	// restart it — that would only repeat the replay) but should not
	// receive new traffic yet.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if ok, reason := s.Ready(); !ok {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not-ready", "reason": reason})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Status())
	})
	mux.HandleFunc("POST /v1/queries", s.handleSubmit)
	mux.HandleFunc("GET /v1/queries", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"queries": s.List()})
	})
	mux.HandleFunc("GET /v1/queries/{id}", s.withQuery(func(w http.ResponseWriter, r *http.Request, q *Query) {
		writeJSON(w, http.StatusOK, q.Snapshot())
	}))
	mux.HandleFunc("DELETE /v1/queries/{id}", s.withQuery(func(w http.ResponseWriter, r *http.Request, q *Query) {
		q.Cancel()
		writeJSON(w, http.StatusOK, q.Snapshot())
	}))
	mux.HandleFunc("GET /v1/queries/{id}/rows", s.withQuery(s.handleRows))
	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		var out []TenantSnapshot
		for _, t := range s.tenants.List() {
			if sn, ok := s.TenantSnapshot(t.ID); ok {
				out = append(out, sn)
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{"tenants": out})
	})
	mux.HandleFunc("GET /v1/tenants/{id}", func(w http.ResponseWriter, r *http.Request) {
		sn, ok := s.TenantSnapshot(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown tenant %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, sn)
	})
	mux.HandleFunc("GET /v1/store", s.handleStore)
	return mux
}

// submitBody is the POST /v1/queries payload. Options fields are
// pointers so "absent" and "zero" are distinguishable; absent fields
// keep the service defaults.
type submitBody struct {
	Tenant  string      `json:"tenant"`
	Query   string      `json:"query"`
	Backend string      `json:"backend,omitempty"`
	Options *apiOptions `json:"options,omitempty"`
}

// apiOptions is the externally settable subset of core.Options.
type apiOptions struct {
	Assignments *int    `json:"assignments,omitempty"`
	Seed        *int64  `json:"seed,omitempty"`
	Combiner    *string `json:"combiner,omitempty"`
	Sort        *string `json:"sort,omitempty"`
	Join        *string `json:"join,omitempty"`
	FilterBatch *int    `json:"filter_batch,omitempty"`
	JoinBatch   *int    `json:"join_batch,omitempty"`
	GridRows    *int    `json:"grid_rows,omitempty"`
	GridCols    *int    `json:"grid_cols,omitempty"`
}

// apply overlays the set fields onto a copy of the defaults.
func (a *apiOptions) apply(defaults core.Options) (core.Options, error) {
	o := defaults
	if a == nil {
		return o, nil
	}
	if a.Assignments != nil {
		o.Assignments = *a.Assignments
	}
	if a.Seed != nil {
		o.Seed = *a.Seed
	}
	if a.Combiner != nil {
		o.Combiner = *a.Combiner
	}
	if a.Sort != nil {
		switch *a.Sort {
		case "compare":
			o.SortMethod = core.SortCompare
		case "rate":
			o.SortMethod = core.SortRate
		case "hybrid":
			o.SortMethod = core.SortHybrid
		default:
			return o, fmt.Errorf("unknown sort method %q (want compare, rate, or hybrid)", *a.Sort)
		}
	}
	if a.Join != nil {
		switch *a.Join {
		case "simple":
			o.JoinAlgorithm = join.Simple
		case "naive":
			o.JoinAlgorithm = join.Naive
		case "smart":
			o.JoinAlgorithm = join.Smart
		default:
			return o, fmt.Errorf("unknown join interface %q (want simple, naive, or smart)", *a.Join)
		}
	}
	if a.FilterBatch != nil {
		o.FilterBatch = *a.FilterBatch
	}
	if a.JoinBatch != nil {
		o.JoinBatch = *a.JoinBatch
	}
	if a.GridRows != nil {
		o.GridRows = *a.GridRows
	}
	if a.GridCols != nil {
		o.GridCols = *a.GridCols
	}
	return o, nil
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var body submitBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	opts, err := body.Options.apply(s.cfg.Options)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	q, err := s.Submit(SubmitRequest{
		Tenant:  body.Tenant,
		Query:   body.Query,
		Backend: body.Backend,
		Options: &opts,
	})
	switch {
	case errors.Is(err, ErrBudgetExceeded):
		writeError(w, http.StatusPaymentRequired, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, q.Snapshot())
	}
}

// rowLine is one NDJSON line of the rows stream; exactly one of
// Values (a row) or State (the trailing status line) is set.
type rowLine struct {
	Row    int               `json:"row,omitempty"`
	Values map[string]string `json:"values,omitempty"`
	State  State             `json:"state,omitempty"`
	Error  string            `json:"error,omitempty"`
	Rows   int               `json:"rows,omitempty"`
}

// handleRows streams the query's rows live as chunked NDJSON.
func (s *Service) handleRows(w http.ResponseWriter, r *http.Request, q *Query) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	n := 0
	st, err := q.StreamRows(r.Context(), 0, func(i int, t relation.Tuple) error {
		n++
		line := rowLine{Row: i, Values: map[string]string{}}
		sch := t.Schema()
		for c := 0; c < t.Len(); c++ {
			name := fmt.Sprintf("c%d", c)
			if sch != nil && c < sch.Len() {
				name = sch.Column(c).Name
			}
			line.Values[name] = t.At(c).String()
		}
		if encErr := enc.Encode(line); encErr != nil {
			return encErr
		}
		// Flush once the stream has caught up with the query rather than
		// per row: a write syscall per row kept this goroutine busy while
		// a fast query kept appending, and delayed the first bytes.
		if flusher != nil && i+1 >= q.rowCount() {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		// The client went away mid-stream; nothing more to write.
		return
	}
	_ = enc.Encode(rowLine{State: st, Rows: n, Error: q.errText()})
}

// handleStore reports the shared answer store's statistics.
func (s *Service) handleStore(w http.ResponseWriter, r *http.Request) {
	type reply struct {
		Enabled bool              `json:"enabled"`
		Stats   answerstore.Stats `json:"stats"`
	}
	st, ok := s.cfg.Answers.(interface{ Stats() answerstore.Stats })
	if s.cfg.Answers == nil || !ok {
		writeJSON(w, http.StatusOK, reply{Enabled: s.cfg.Answers != nil})
		return
	}
	writeJSON(w, http.StatusOK, reply{Enabled: true, Stats: st.Stats()})
}

// withQuery resolves {id} or 404s.
func (s *Service) withQuery(h func(http.ResponseWriter, *http.Request, *Query)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q, ok := s.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown query %q", r.PathValue("id")))
			return
		}
		h(w, r, q)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

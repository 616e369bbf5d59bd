// Package service is qurkd's multi-tenant query service: many
// concurrent queries from many tenants over shared crowd marketplaces
// and a shared cross-query answer store.
//
// The pieces, composed per the paper's architecture (Fig. 1) scaled to
// a long-running process:
//
//   - One Mux per backend: a single dispatch loop all queries' HIT
//     chunks post through, so the process maintains one poster loop
//     per marketplace rather than one per query.
//   - One Tenant per paying principal, with a dollar budget enforced
//     through a cost.Ledger: queries are admitted only when the
//     optimizer's estimate fits the remaining budget, and every posted
//     group is charged before it reaches the marketplace (BudgetGate),
//     cutting a query off mid-run when the money runs out.
//   - One shared core.AnswerStore (internal/answerstore) across every
//     engine the service builds: a question some earlier query already
//     paid for is served from the store and never posted again.
//
// Each submitted query gets its own engine — fresh ledger and
// options — sharing the service-wide catalog, task library, answer
// store, and backend mux. Results stream: rows are appended to the
// query as the executor yields batches, and any number of subscribers
// (HTTP chunked responses) follow along.
package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"qurk/internal/answerstore"
	"qurk/internal/circuit"
	"qurk/internal/core"
	"qurk/internal/cost"
	"qurk/internal/crowd"
	"qurk/internal/exec"
	"qurk/internal/plan"
	"qurk/internal/query"
	"qurk/internal/relation"
	"qurk/internal/wal"
)

// Config wires a Service.
type Config struct {
	// Backends maps backend names to marketplaces; each is wrapped in
	// its own Mux. Required: at least one.
	Backends map[string]crowd.Marketplace
	// DefaultBackend names the backend used when a submission does not
	// pick one; defaults to the sole backend when there is exactly one.
	DefaultBackend string
	// Catalog and Library are shared by every query's engine.
	Catalog *relation.Catalog
	Library *core.Library
	// Answers is the shared cross-query answer store (nil disables
	// reuse).
	Answers core.AnswerStore
	// Stats is the shared observed-statistics store: every tenant's
	// runs feed their measured selectivities, pass fractions, and group
	// sizes into it, and every submission's admission-time plan is
	// seeded from that history (nil disables the feedback loop).
	Stats core.ObservedStats
	// Options are the engine defaults each submission may override.
	Options core.Options
	// Tenants is the tenant directory; nil creates an empty one.
	Tenants *Registry
	// DefaultBudgetDollars seeds tenants auto-created at submission
	// time (0 = unlimited).
	DefaultBudgetDollars float64
	// JournalDir, when set, makes every query durable by default: one
	// WAL file per query (see journal.go), resumed by Recover on the
	// next boot. Callers that set it MUST call Recover once after New
	// — the service reports not-ready until then.
	JournalDir string
	// Clock drives per-query deadlines (Options.DeadlineHours) and is
	// shared with the circuit breakers; nil means wall time.
	Clock Clock
	// Circuit, when non-nil, wraps every backend in a circuit breaker
	// beneath its Mux: a marketplace outage parks posting calls (the
	// service reports degraded) instead of failing queries. The
	// config's Clock field is overridden by the service clock.
	Circuit *circuit.Config
}

// Clock abstracts wall time for deadline and breaker cooldowns so
// tests can drive both deterministically.
type Clock = circuit.Clock

// wallClock is the production Clock.
type wallClock struct{}

// Now implements Clock.
func (wallClock) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// ErrDeadlineExceeded is the failure cause of a query that outlived
// its Options.DeadlineHours wall-clock budget. Only the overdue query
// fails; its journal seals "interrupted" and stays resumable.
var ErrDeadlineExceeded = errors.New("service: query deadline exceeded")

// errUserCancelled marks an explicit Cancel (API DELETE); unlike a
// shutdown it seals the journal as cancelled, which Recover treats as
// terminal rather than resumable.
var errUserCancelled = errors.New("service: cancelled by request")

// errShutdown marks queries cancelled by Service.Close; their
// journals seal "interrupted: …" so the next boot resumes them.
var errShutdown = errors.New("service: shutting down")

// State is a query's lifecycle phase.
type State string

// Query lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Query is one submitted query's full lifecycle record.
type Query struct {
	// ID is the service-assigned handle ("q0001").
	ID string
	// TenantID, Backend, and Src echo the submission.
	TenantID string
	Backend  string
	Src      string

	svc         *Service
	engine      *core.Engine
	cancelCause context.CancelCauseFunc
	// journal is non-nil for durable queries; sealed at the terminal
	// transition.
	journal *wal.Journal

	mu     sync.Mutex
	state  State
	err    error
	schema *relation.Schema
	rows   []relation.Tuple
	stats  *exec.Stats
	// wake is closed and replaced whenever rows or state change, so
	// row subscribers can block without polling.
	wake chan struct{}
}

// Snapshot is a query's JSON-ready status.
type Snapshot struct {
	ID      string   `json:"id"`
	Tenant  string   `json:"tenant"`
	Backend string   `json:"backend"`
	Query   string   `json:"query"`
	State   State    `json:"state"`
	Error   string   `json:"error,omitempty"`
	Columns []string `json:"columns,omitempty"`
	Rows    int      `json:"rows"`
	// HITs/Assignments/Reused/Dollars summarize crowd spending so far;
	// Reused counts questions served from the shared answer store.
	HITs          int     `json:"hits"`
	Reused        int     `json:"reused"`
	Dollars       float64 `json:"dollars"`
	MakespanHours float64 `json:"makespan_hours,omitempty"`
}

// Service is the multi-tenant query service.
type Service struct {
	cfg      Config
	muxes    map[string]*Mux
	breakers map[string]*circuit.Breaker
	tenants  *Registry
	clock    Clock

	mu         sync.Mutex
	queries    map[string]*Query
	order      []string
	nextID     int
	closed     bool
	recovering bool
	wg         sync.WaitGroup
}

// New builds a Service; it validates that at least one backend exists
// and resolves the default backend.
func New(cfg Config) (*Service, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("service: no backends configured")
	}
	if cfg.DefaultBackend == "" {
		if len(cfg.Backends) == 1 {
			for name := range cfg.Backends {
				cfg.DefaultBackend = name
			}
		} else {
			return nil, errors.New("service: multiple backends need an explicit DefaultBackend")
		}
	}
	if _, ok := cfg.Backends[cfg.DefaultBackend]; !ok {
		return nil, fmt.Errorf("service: default backend %q is not configured", cfg.DefaultBackend)
	}
	if cfg.Catalog == nil {
		cfg.Catalog = relation.NewCatalog()
	}
	if cfg.Library == nil {
		cfg.Library = core.NewLibrary()
	}
	if cfg.Tenants == nil {
		cfg.Tenants = NewRegistry()
	}
	if cfg.Clock == nil {
		cfg.Clock = wallClock{}
	}
	s := &Service{
		cfg:      cfg,
		muxes:    map[string]*Mux{},
		breakers: map[string]*circuit.Breaker{},
		tenants:  cfg.Tenants,
		clock:    cfg.Clock,
		queries:  map[string]*Query{},
		// Not-ready from the first instant when journaling is on: the
		// flag clears when Recover finishes, so a load balancer never
		// routes submits to a daemon that has not replayed its journals
		// yet (even before Recover is called).
		recovering: cfg.JournalDir != "",
	}
	for name, m := range cfg.Backends {
		if cfg.Circuit != nil {
			bc := *cfg.Circuit
			bc.Clock = s.clock
			b := circuit.New(m, bc)
			s.breakers[name] = b
			m = b
		}
		s.muxes[name] = NewMux(m)
	}
	return s, nil
}

// Ready reports whether the service should receive traffic, with a
// human reason when it should not: journal recovery is still
// replaying, or a backend's circuit breaker is not closed.
func (s *Service) Ready() (bool, string) {
	s.mu.Lock()
	rec := s.recovering
	s.mu.Unlock()
	if rec {
		return false, "recovering journaled queries"
	}
	for _, name := range s.backendNames() {
		if b := s.breakers[name]; b != nil {
			if st := b.State(); st != circuit.Closed {
				return false, fmt.Sprintf("backend %s circuit %s", name, st)
			}
		}
	}
	return true, ""
}

// backendNames lists backends sorted, for stable status output.
func (s *Service) backendNames() []string {
	names := make([]string, 0, len(s.muxes))
	for name := range s.muxes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// BackendStatus is one backend's health in the status report.
type BackendStatus struct {
	// Circuit is the breaker state ("closed"/"open"/"half-open"), or
	// "disabled" when the service runs without breakers.
	Circuit string `json:"circuit"`
	// Parked counts posting calls waiting out an open circuit.
	Parked int `json:"parked"`
	// Groups and HITs are the mux's admitted-work counters.
	Groups int `json:"groups"`
	HITs   int `json:"hits"`
}

// Status is the service's operational snapshot (GET /v1/status).
type Status struct {
	// State is "ok", "degraded" (some circuit not closed, or the answer
	// store lost persistence), or "recovering" (journal replay still
	// running).
	State      string                   `json:"state"`
	Recovering bool                     `json:"recovering"`
	Backends   map[string]BackendStatus `json:"backends"`
	Queries    int                      `json:"queries"`
}

// Status reports service health: recovery progress and per-backend
// circuit state. Degraded means at least one breaker is not closed —
// queries are parked, not failing — or the answer store can no longer
// write its file and serves from memory only.
func (s *Service) Status() Status {
	s.mu.Lock()
	st := Status{
		Recovering: s.recovering,
		Backends:   map[string]BackendStatus{},
		Queries:    len(s.queries),
	}
	s.mu.Unlock()
	degraded := false
	for _, name := range s.backendNames() {
		bs := BackendStatus{Circuit: "disabled"}
		bs.Groups, bs.HITs = s.muxes[name].Stats()
		if b := s.breakers[name]; b != nil {
			cs := b.State()
			bs.Circuit = cs.String()
			bs.Parked = b.Parked()
			if cs != circuit.Closed {
				degraded = true
			}
		}
		st.Backends[name] = bs
	}
	if a, ok := s.cfg.Answers.(interface{ Stats() answerstore.Stats }); ok && a.Stats().PersistError != "" {
		degraded = true
	}
	switch {
	case st.Recovering:
		st.State = "recovering"
	case degraded:
		st.State = "degraded"
	default:
		st.State = "ok"
	}
	return st
}

// Tenants exposes the tenant directory.
func (s *Service) Tenants() *Registry { return s.tenants }

// MuxStats reports per-backend admitted groups and HITs.
func (s *Service) MuxStats() map[string][2]int {
	out := map[string][2]int{}
	for name, m := range s.muxes {
		g, h := m.Stats()
		out[name] = [2]int{g, h}
	}
	return out
}

// SubmitRequest is one query submission.
type SubmitRequest struct {
	// Tenant is required; unknown tenants are created with the
	// service's default budget.
	Tenant string
	// Query is the query text (required).
	Query string
	// Backend picks a configured marketplace ("" = default).
	Backend string
	// Options overrides the service defaults for this query (nil =
	// defaults).
	Options *core.Options
}

// Submit admits and starts one query, returning its handle
// immediately; execution proceeds in the background. Admission fails
// with ErrBudgetExceeded when the optimizer's cost estimate does not
// fit the tenant's remaining budget.
func (s *Service) Submit(req SubmitRequest) (*Query, error) {
	if req.Tenant == "" {
		return nil, errors.New("service: submission needs a tenant")
	}
	if req.Query == "" {
		return nil, errors.New("service: submission needs a query")
	}
	backend := req.Backend
	if backend == "" {
		backend = s.cfg.DefaultBackend
	}
	mux, ok := s.muxes[backend]
	if !ok {
		return nil, fmt.Errorf("service: unknown backend %q", backend)
	}
	opts := s.cfg.Options
	if req.Options != nil {
		opts = *req.Options
	}
	tenant := s.tenants.Ensure(req.Tenant, s.cfg.DefaultBudgetDollars)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("service: shut down")
	}
	s.nextID++
	id := fmt.Sprintf("q%04d", s.nextID)
	s.mu.Unlock()

	gate := &BudgetGate{Tenant: tenant, Label: id, Inner: mux}
	eng := s.newEngine(gate, opts)

	// Admission control: the query must parse, plan, and fit the
	// tenant's remaining budget by the optimizer's estimate.
	root, err := s.admit(eng, tenant, req.Query)
	if err != nil {
		return nil, err
	}

	// Durable by default when a journal directory is configured: the
	// journal and its meta record commit before the query starts, so a
	// crash at ANY later point leaves enough on disk for Recover to
	// resume.
	var j *wal.Journal
	if s.cfg.JournalDir != "" {
		if j, err = s.attachJournal(id, backend, tenant, req.Query, gate, eng); err != nil {
			return nil, err
		}
	}

	ctx, q := s.register(id, tenant.ID, backend, req.Query, eng, j)
	if q == nil {
		return nil, errors.New("service: shut down")
	}
	s.armDeadline(ctx, q, eng.Options.DeadlineHours)
	go q.run(ctx, root)
	return q, nil
}

// newEngine builds a per-query engine over the budget gate, sharing
// the service-wide catalog, library, answer store, and stats store.
func (s *Service) newEngine(gate *BudgetGate, opts core.Options) *core.Engine {
	eng := core.NewEngine(gate, opts)
	eng.Catalog = s.cfg.Catalog
	eng.Library = s.cfg.Library
	eng.Answers = s.cfg.Answers
	eng.ObStats = s.cfg.Stats
	return eng
}

// admit parses the query once and builds two plan trees from the
// statement: the one the query executes, which it returns, and one the
// optimizer annotates in place to cost-estimate the query against the
// tenant's remaining budget. Parse and plan errors reject the
// submission here, synchronously, rather than as a failed background
// query.
func (s *Service) admit(eng *core.Engine, tenant *Tenant, src string) (plan.Node, error) {
	stmt, err := query.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	root, err := plan.Build(stmt, eng.Library)
	if err != nil {
		return nil, err
	}
	costed, err := plan.Build(stmt, eng.Library)
	if err != nil {
		return nil, err
	}
	// A store-seeded estimate lets a second submission of a workload
	// the store has seen get a truer budget check before running.
	cp, err := plan.OptimizeFor(eng, costed, 0)
	if err != nil {
		return nil, err
	}
	return root, tenant.admit(cp.TotalDollars)
}

// run executes the query's plan tree, streaming rows into the record,
// then seals the journal according to the terminal state. The tree is
// an argument, not a field, so a finished query does not retain it.
func (q *Query) run(ctx context.Context, root plan.Node) {
	defer q.svc.wg.Done()
	q.transition(StateRunning, nil, nil)
	out, st, err := exec.Run(ctx, q.engine, root, func(ts []relation.Tuple, _ float64) error {
		q.appendRows(ts)
		return nil
	})
	var final State
	switch {
	case err == nil:
		q.mu.Lock()
		if out != nil {
			q.schema = out.Schema()
		}
		q.mu.Unlock()
		final = StateDone
		q.transition(StateDone, st, nil)
	case ctx.Err() != nil:
		cause := context.Cause(ctx)
		if errors.Is(cause, ErrDeadlineExceeded) {
			// A blown deadline is a failure of this one query, not a
			// cancellation: the journal seals "interrupted" and Recover
			// resumes it on the next boot.
			final = StateFailed
			q.transition(StateFailed, st, cause)
		} else {
			final = StateCancelled
			q.transition(StateCancelled, st, cause)
		}
		err = cause
	default:
		final = StateFailed
		q.transition(StateFailed, st, err)
	}
	q.sealJournal(final, err)
}

func (q *Query) appendRows(ts []relation.Tuple) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.rows = append(q.rows, ts...)
	if q.schema == nil && len(ts) > 0 {
		q.schema = ts[0].Schema()
	}
	q.broadcast()
}

// transition moves the query to a new state unless it is already
// terminal (a cancel that races completion keeps the first outcome).
func (q *Query) transition(st State, stats *exec.Stats, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.state.Terminal() {
		return
	}
	q.state = st
	if stats != nil {
		q.stats = stats
	}
	q.err = err
	q.broadcast()
}

// broadcast wakes row subscribers; callers hold q.mu.
func (q *Query) broadcast() {
	close(q.wake)
	q.wake = make(chan struct{})
}

// Cancel stops the query cooperatively; in-flight chunks complete but
// are no longer waited for. A user cancel is terminal: the journal is
// sealed "cancelled" and Recover will not resume it.
func (q *Query) Cancel() { q.cancelCause(errUserCancelled) }

// Snapshot returns the query's JSON-ready status.
func (q *Query) Snapshot() Snapshot {
	q.mu.Lock()
	defer q.mu.Unlock()
	sn := Snapshot{
		ID:      q.ID,
		Tenant:  q.TenantID,
		Backend: q.Backend,
		Query:   q.Src,
		State:   q.state,
		Rows:    len(q.rows),
	}
	if q.err != nil {
		sn.Error = q.err.Error()
	}
	if q.schema != nil {
		for i := 0; i < q.schema.Len(); i++ {
			sn.Columns = append(sn.Columns, q.schema.Column(i).Name)
		}
	}
	if q.stats != nil {
		sn.HITs = q.stats.TotalHITs()
		sn.Reused = q.stats.TotalReused()
		sn.MakespanHours = q.stats.PipelineMakespanHours
	}
	sn.Dollars = q.ledgerDollars()
	return sn
}

// ledgerDollars reads the query's own entries out of the tenant
// ledger; callers hold q.mu (the ledger has its own lock).
func (q *Query) ledgerDollars() float64 {
	t := q.svc.tenants.Get(q.TenantID)
	if t == nil {
		return 0
	}
	return t.Ledger.DollarsFor(q.ID)
}

// errText returns the query's error message, or "" if it has none.
func (q *Query) errText() string {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err == nil {
		return ""
	}
	return q.err.Error()
}

// Stats returns the run's exec stats once terminal (nil before).
func (q *Query) Stats() *exec.Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// StreamRows delivers result rows to fn starting at index from,
// following the query live until it reaches a terminal state, ctx
// ends, or fn errors. It returns the final state.
func (q *Query) StreamRows(ctx context.Context, from int, fn func(i int, t relation.Tuple) error) (State, error) {
	i := from
	if i < 0 {
		i = 0
	}
	for {
		q.mu.Lock()
		rows := q.rows[min(i, len(q.rows)):]
		st := q.state
		wake := q.wake
		q.mu.Unlock()
		for _, t := range rows {
			if err := fn(i, t); err != nil {
				return st, err
			}
			i++
		}
		if st.Terminal() {
			// Drain rows that landed between the snapshot and the
			// terminal transition (broadcast ordering makes this rare).
			q.mu.Lock()
			tail := q.rows[min(i, len(q.rows)):]
			q.mu.Unlock()
			for _, t := range tail {
				if err := fn(i, t); err != nil {
					return st, err
				}
				i++
			}
			return st, nil
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}

// rowCount reports how many rows the query has produced so far.
func (q *Query) rowCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.rows)
}

// Get returns a query by ID.
func (s *Service) Get(id string) (*Query, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queries[id]
	return q, ok
}

// List returns snapshots of every query in submission order.
func (s *Service) List() []Snapshot {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]Snapshot, 0, len(ids))
	for _, id := range ids {
		if q, ok := s.Get(id); ok {
			out = append(out, q.Snapshot())
		}
	}
	return out
}

// TenantSnapshot is a tenant's JSON-ready status.
type TenantSnapshot struct {
	ID string `json:"id"`
	// BudgetDollars 0 means unlimited.
	BudgetDollars    float64      `json:"budget_dollars"`
	SpentDollars     float64      `json:"spent_dollars"`
	RemainingDollars float64      `json:"remaining_dollars"`
	HITs             int          `json:"hits"`
	Entries          []cost.Entry `json:"entries,omitempty"`
	Queries          []string     `json:"queries,omitempty"`
}

// TenantSnapshot builds one tenant's status, or ok=false.
func (s *Service) TenantSnapshot(id string) (TenantSnapshot, bool) {
	t := s.tenants.Get(id)
	if t == nil {
		return TenantSnapshot{}, false
	}
	sn := TenantSnapshot{
		ID:               t.ID,
		BudgetDollars:    t.BudgetDollars,
		SpentDollars:     t.SpentDollars(),
		RemainingDollars: t.RemainingDollars(),
		HITs:             t.Ledger.TotalHITs(),
		Entries:          t.Ledger.Entries(),
	}
	s.mu.Lock()
	for _, qid := range s.order {
		if q := s.queries[qid]; q != nil && q.TenantID == id {
			sn.Queries = append(sn.Queries, qid)
		}
	}
	s.mu.Unlock()
	sort.Strings(sn.Queries)
	return sn, true
}

// Close cancels every live query, waits for their goroutines, and
// stops the backend muxes.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	qs := make([]*Query, 0, len(s.queries))
	for _, q := range s.queries {
		qs = append(qs, q)
	}
	s.mu.Unlock()
	for _, q := range qs {
		// Shutdown is not a user cancel: the journal seals
		// "interrupted", so the next boot resumes these queries.
		q.cancelCause(errShutdown)
	}
	s.wg.Wait()
	for _, m := range s.muxes {
		m.Close()
	}
	// Breakers last: closing them releases any posting call still
	// parked on an open circuit.
	for _, b := range s.breakers {
		b.Close()
	}
}

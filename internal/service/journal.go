// Durable queries: the one journal file per query behind qurkd's
// -journal-dir, and the restart recovery that resumes them.
//
// Every submitted query persists one file in the journal directory,
// <id>.qjl, a wal.Journal. Its meta record names the tenant, the
// tenant's budget, the query text, the backend, the resolved options
// and their fingerprint: everything Recover needs to rebuild the
// engine. The records after it are the run itself: HIT-group
// intents/results, breaker checkpoints, budget charge records, and the
// terminal seal, which make the rebuilt run bit-identical. Charge
// records (wal.LogCharge) make tenant accounting exactly-once across
// crashes: the gate journals every ledger charge before the group
// posts, the recovery replays them into a fresh ledger, and the
// resumed run pops them (wal.TakeCharge) instead of charging again.
//
// Journals written before the meta carried tenant, budget and options
// came with a <id>.manifest.json that holds them. Recover still reads
// such a legacy pair; nothing writes a manifest any more.
package service

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"qurk/internal/core"
	"qurk/internal/plan"
	"qurk/internal/wal"
)

// sealCancelled is the seal reason for queries the user explicitly
// cancelled; unlike "interrupted" seals, Recover does not resume them.
const sealCancelled = "cancelled"

// Fingerprint hashes what must match for a journal to be safe to
// resume: the query text, the fully resolved options (after
// fillDefaults — what the engine actually ran with; they fix batch
// sizes, seeds, and retry budgets, all of which shape HIT identity),
// and the backend. qurkd passes the backend's configured name, which
// is stable across restarts and rebuilds; Client passes the
// marketplace's Go type. The value is persisted in every journal, so
// it must never change for the same inputs.
func Fingerprint(src string, opts core.Options, backend string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, src)
	h.Write([]byte{0})
	ob, _ := json.Marshal(opts)
	h.Write(ob)
	h.Write([]byte{0})
	io.WriteString(h, backend)
	return h.Sum64()
}

// queryMeta is the journal meta of one durable query; opts are the
// engine's resolved options.
func queryMeta(tenant string, budget float64, src, backend string, opts core.Options) wal.Meta {
	ob, _ := json.Marshal(opts)
	return wal.Meta{
		Query:         src,
		Backend:       backend,
		Fingerprint:   Fingerprint(src, opts, backend),
		Tenant:        tenant,
		BudgetDollars: budget,
		Options:       string(ob),
	}
}

// journalPath names a query's one durable file.
func (s *Service) journalPath(id string) string {
	return filepath.Join(s.cfg.JournalDir, id+".qjl")
}

// legacyMeta completes the meta of a journal written before the meta
// carried tenant, budget and options, from the manifest written beside
// it. The two files must name the same query and fingerprint.
func (s *Service) legacyMeta(id string, jm wal.Meta) (wal.Meta, error) {
	b, err := os.ReadFile(filepath.Join(s.cfg.JournalDir, id+".manifest.json"))
	if err != nil {
		return jm, fmt.Errorf("service: unreadable manifest: %w", err)
	}
	// The manifest used the meta's field names, with the options as a
	// JSON object rather than as JSON text.
	var m struct {
		wal.Meta
		Options json.RawMessage `json:"options"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return jm, fmt.Errorf("service: unreadable manifest: %w", err)
	}
	if m.Tenant == "" || m.Query == "" {
		return jm, errors.New("service: unreadable manifest: missing tenant or query")
	}
	if m.Query != jm.Query || m.Fingerprint != jm.Fingerprint {
		return jm, fmt.Errorf("service: journal/manifest fingerprint mismatch for %s (manifest %016x, journal %016x): refusing to resume",
			id, m.Fingerprint, jm.Fingerprint)
	}
	m.Meta.Options = string(m.Options)
	return m.Meta, nil
}

// attachJournal makes one admitted submission durable: it creates the
// WAL, whose meta record carries everything Recover needs, and rewires
// the engine so every HIT group and budget charge flows through the
// journal. Returns the open journal the query must seal at its
// terminal transition.
func (s *Service) attachJournal(id, backend string, tenant *Tenant, src string, gate *BudgetGate, eng *core.Engine) (*wal.Journal, error) {
	j, err := wal.Create(s.journalPath(id), queryMeta(tenant.ID, tenant.BudgetDollars, src, backend, eng.Options))
	if err != nil {
		return nil, fmt.Errorf("service: creating journal for %s: %w", id, err)
	}
	s.wireJournal(j, gate, eng)
	return j, nil
}

// wireJournal routes an engine's marketplace traffic through the
// journal: replay-or-post via wal.Market, breaker checkpoints via
// eng.Journal, and crash-safe budget charges via the gate.
func (s *Service) wireJournal(j *wal.Journal, gate *BudgetGate, eng *core.Engine) {
	gate.Journal = j
	eng.Market = wal.NewMarket(gate, j)
	eng.Journal = j
}

// Recover scans the journal directory and re-admits every durable
// query found there: unfinished (and deadline-interrupted) queries
// resume running under their original tenants and IDs, completed ones
// replay for free so their rows are servable again, and explicitly
// cancelled ones are registered terminal. Tenant ledgers are rebuilt
// from the journals' charge records, so a group charged before the
// crash is never charged again. A query whose journal will not open,
// or whose stored fingerprint does not match the one recomputed from
// its meta, is registered as failed — the daemon keeps serving
// everyone else.
//
// Callers that configure JournalDir must call Recover exactly once,
// after New; the service reports not-ready until it completes.
func (s *Service) Recover() error {
	defer func() {
		s.mu.Lock()
		s.recovering = false
		s.mu.Unlock()
	}()
	if s.cfg.JournalDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.JournalDir, 0o755); err != nil {
		return fmt.Errorf("service: journal dir: %w", err)
	}
	// ReadDir sorts by name, and zero-padded IDs (q0001…) make name
	// order submission order, which keeps recovered ID assignment
	// stable.
	entries, err := os.ReadDir(s.cfg.JournalDir)
	if err != nil {
		return fmt.Errorf("service: scanning journal dir: %w", err)
	}
	for _, e := range entries {
		if id, ok := strings.CutSuffix(e.Name(), ".qjl"); ok && !e.IsDir() {
			s.recoverOne(id)
		}
	}
	return nil
}

// recoverOne rebuilds and restarts a single journaled query.
func (s *Service) recoverOne(id string) {
	j, err := wal.Open(s.journalPath(id))
	if err != nil {
		s.registerTerminal(id, wal.Meta{}, StateFailed, fmt.Errorf("service: opening journal: %w", err))
		return
	}
	fail := func(m wal.Meta, st State, err error) {
		_ = j.Close()
		s.registerTerminal(id, m, st, err)
	}
	m := j.Meta()
	if m.Options == "" {
		if m, err = s.legacyMeta(id, m); err != nil {
			fail(m, StateFailed, err)
			return
		}
	}
	var opts core.Options
	if err := json.Unmarshal([]byte(m.Options), &opts); err != nil {
		fail(m, StateFailed, fmt.Errorf("service: decoding options of %s: %w", id, err))
		return
	}
	tenant := s.tenants.Ensure(m.Tenant, m.BudgetDollars)
	mux, ok := s.muxes[m.Backend]
	if !ok {
		fail(m, StateFailed, fmt.Errorf("service: backend %q is no longer configured", m.Backend))
		return
	}

	// The resume guard: a recomputation from the meta's own query,
	// options and backend must match its stored fingerprint before any
	// of the journal's results are trusted for this query text.
	gate := &BudgetGate{Tenant: tenant, Label: id, Inner: mux}
	eng := s.newEngine(gate, opts)
	if fp := Fingerprint(m.Query, eng.Options, m.Backend); fp != m.Fingerprint {
		fail(m, StateFailed, fmt.Errorf(
			"service: journal fingerprint mismatch for %s (journal %016x, recomputed %016x): refusing to resume",
			id, m.Fingerprint, fp))
		return
	}
	if sealed, reason := j.Sealed(); sealed && reason == sealCancelled {
		fail(m, StateCancelled, errors.New("service: cancelled before restart"))
		return
	}

	// Exactly-once accounting: the fresh boot's in-memory ledger learns
	// every charge the journal recorded; the resumed run pops these
	// (TakeCharge) instead of charging again.
	for _, c := range j.Charges() {
		tenant.Ledger.Add(id, c.HITs, c.Assignments)
	}

	// Charges recorded before the crash were really spent, so the
	// ledger keeps them even if the query no longer builds (a task
	// dropped from the library, say). Such a query fails alone; its
	// journal stays unsealed, so a later boot can still resume it.
	root, err := plan.BuildQuery(m.Query, eng.Library)
	if err != nil {
		fail(m, StateFailed, err)
		return
	}

	s.wireJournal(j, gate, eng)
	ctx, q := s.register(id, tenant.ID, m.Backend, m.Query, eng, j)
	if q == nil {
		return // service shut down mid-recovery
	}
	s.armDeadline(ctx, q, eng.Options.DeadlineHours)
	go q.run(ctx, root)
}

// registerTerminal records a query that recovery refused to (or need
// not) restart, so its fate is visible in the API rather than
// silently dropped. Tenant and query text unknown to m read "?".
func (s *Service) registerTerminal(id string, m wal.Meta, st State, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.noteID(id)
	q := &Query{
		ID:       id,
		TenantID: cmp.Or(m.Tenant, "?"),
		Backend:  m.Backend,
		Src:      cmp.Or(m.Query, "?"),
		svc:      s,
		state:    st,
		err:      err,
		wake:     make(chan struct{}),
	}
	q.cancelCause = func(error) {}
	s.queries[id] = q
	s.order = append(s.order, id)
}

// noteID advances the ID counter past a recovered ID so new
// submissions never collide with resumed queries. Callers hold s.mu.
func (s *Service) noteID(id string) {
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "q")); err == nil && n > s.nextID {
		s.nextID = n
	}
}

// register installs a runnable query record under s.mu and returns
// its run context; nil if the service is closed.
func (s *Service) register(id, tenantID, backend, src string, eng *core.Engine, j *wal.Journal) (context.Context, *Query) {
	ctx, cancel := context.WithCancelCause(context.Background())
	q := &Query{
		ID:          id,
		TenantID:    tenantID,
		Backend:     backend,
		Src:         src,
		svc:         s,
		engine:      eng,
		cancelCause: cancel,
		state:       StateQueued,
		wake:        make(chan struct{}),
		journal:     j,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		cancel(errShutdown)
		if j != nil {
			_ = j.Close()
		}
		return nil, nil
	}
	s.noteID(id)
	s.queries[id] = q
	s.order = append(s.order, id)
	s.wg.Add(1)
	return ctx, q
}

// armDeadline starts the per-query wall-clock watchdog: when the
// service clock has slept DeadlineHours, the query alone is failed
// with ErrDeadlineExceeded (its journal seals "interrupted", so it
// resumes — with a fresh deadline window — on the next boot).
func (s *Service) armDeadline(ctx context.Context, q *Query, hours float64) {
	if hours <= 0 {
		return
	}
	d := time.Duration(hours * float64(time.Hour))
	go func() {
		fired := make(chan struct{})
		go func() {
			s.clock.Sleep(d)
			close(fired)
		}()
		select {
		case <-fired:
			q.cancelCause(fmt.Errorf("%w after %.2fh", ErrDeadlineExceeded, d.Hours()))
		case <-ctx.Done():
		}
	}()
}

// sealJournal writes the query's terminal seal and releases the
// journal file. Completion seals SealComplete; an explicit user
// cancel seals "cancelled" (not resumed); every other terminal —
// failure, deadline, shutdown — seals "interrupted: …" and stays
// resumable.
func (q *Query) sealJournal(st State, cause error) {
	if q.journal == nil {
		return
	}
	var reason string
	switch {
	case st == StateDone:
		reason = wal.SealComplete
	case st == StateCancelled && errors.Is(cause, errUserCancelled):
		reason = sealCancelled
	case cause != nil:
		reason = "interrupted: " + cause.Error()
	default:
		reason = "interrupted"
	}
	_ = q.journal.Seal(reason)
	_ = q.journal.Close()
}

// The Client API: the one public way to run a crowd query.
//
// Construct a Client once over a marketplace with functional options
// (engine knobs, a shared catalog and task library, a write-ahead
// journal for durable runs, a dollar budget, a shared cross-query
// answer store), then Run, RunStream, Resume, Optimize, and Explain
// queries against it. RunPlan executes a plan the caller already
// holds, such as a CostedPlan's Root.
package qurk

import (
	"context"
	"fmt"
	"strings"

	"qurk/internal/answerstore"
	"qurk/internal/core"
	"qurk/internal/cost"
	"qurk/internal/exec"
	"qurk/internal/obstats"
	"qurk/internal/plan"
	"qurk/internal/relation"
	"qurk/internal/service"
	"qurk/internal/wal"
)

// --- Shared cross-query answer store (internal/answerstore) ---

type (
	// AnswerStore is the interface engines consult before posting any
	// crowd question: content already answered (by this query or an
	// earlier one) is served from the store and never posted.
	AnswerStore = core.AnswerStore
	// SharedAnswerStore is the persistent, concurrency-safe store
	// implementation shared across queries (and across qurkd tenants).
	SharedAnswerStore = answerstore.Store
	// AnswerStorePolicy gates what stored answers are servable
	// (minimum agreement, maximum age).
	AnswerStorePolicy = answerstore.Policy
	// AnswerStoreStats counts store traffic.
	AnswerStoreStats = answerstore.Stats
)

// OpenAnswerStore opens (or creates) a shared answer store; an empty
// path keeps it in memory only.
var OpenAnswerStore = answerstore.Open

// StatsStore is the persistent observed-statistics store: an
// append-only CRC-framed log of per-task observed selectivities,
// POSSIBLY pass fractions, sort group sizes, worker latency and
// agreement, aggregated into weighted means the optimizer blends with
// its priors at plan time (see docs/STATS.md).
type StatsStore = obstats.Store

// OpenStatsStore opens (or creates) an observed-statistics store; an
// empty path keeps it in memory only.
var OpenStatsStore = obstats.Open

// Shared-structure constructors for clients that pool a catalog or
// task library across engines.
var (
	// NewCatalog returns an empty table catalog.
	NewCatalog = relation.NewCatalog
	// NewLibrary returns an empty task library.
	NewLibrary = core.NewLibrary
)

// StreamSink receives result batches as the executor produces them
// (rows plus the virtual crowd clock at which they became available).
type StreamSink = exec.Sink

// ErrBudgetExceeded reports that a run hit its client (or tenant)
// dollar budget; posting stops immediately.
var ErrBudgetExceeded = service.ErrBudgetExceeded

// Client is a configured query-running handle over one marketplace.
// The zero value is not usable; construct with NewClient. A Client is
// safe for concurrent queries (the engine's services all are), though
// durable runs serialize on their journal file.
type Client struct {
	eng     *Engine
	journal string
	budget  *service.Tenant
}

// clientConfig accumulates functional options.
type clientConfig struct {
	opts      Options
	catalog   *Catalog
	library   *Library
	answers   AnswerStore
	obstats   core.ObservedStats
	journal   string
	budget    float64
	hasBudget bool
}

// ClientOption configures NewClient.
type ClientOption func(*clientConfig)

// WithOptions sets the engine execution knobs (batch sizes, join and
// sort interfaces, combiner, seed, ...).
func WithOptions(o Options) ClientOption {
	return func(c *clientConfig) { c.opts = o }
}

// WithAssignments sets workers per HIT without replacing the rest of
// the options.
func WithAssignments(n int) ClientOption {
	return func(c *clientConfig) { c.opts.Assignments = n }
}

// WithCatalog shares a table catalog (e.g. a dataset's, or one pooled
// across clients) instead of starting empty.
func WithCatalog(cat *Catalog) ClientOption {
	return func(c *clientConfig) { c.catalog = cat }
}

// WithLibrary shares a task library instead of starting empty.
func WithLibrary(lib *Library) ClientOption {
	return func(c *clientConfig) { c.library = lib }
}

// WithDataset wires a built-in dataset's catalog and task library
// (see OpenDataset).
func WithDataset(d *DatasetBundle) ClientOption {
	return func(c *clientConfig) { c.catalog, c.library = d.Catalog, d.Library }
}

// WithAnswerStore shares a cross-query answer store: questions with
// servable stored answers are never posted, and fresh answers feed
// the store for later queries.
func WithAnswerStore(s AnswerStore) ClientOption {
	return func(c *clientConfig) { c.answers = s }
}

// WithStatsStore shares an observed-statistics store across the
// client's runs (and, via a shared store, across clients): every run
// feeds its measured selectivities, POSSIBLY pass fractions, and sort
// group sizes into it, and the optimizer blends that history into its
// estimates at plan time. The store rides on the Engine, not Options,
// so attaching one never changes a durable run's journal fingerprint.
func WithStatsStore(s *StatsStore) ClientOption {
	return func(c *clientConfig) {
		if s != nil {
			c.obstats = s
		}
	}
}

// WithReplan enables mid-run re-optimization at pipeline breakers: the
// executor re-costs the join's pair interface once the first probe
// rows reveal the true POSSIBLY pass fraction (switching NaiveBatch→
// SmartBatch when grids are cheaper), and re-costs each sort group at
// its true size (switching Compare→Rate). minQuality floors the
// switched interface's estimated quality; 0 keeps the engine default.
// Replan settings live in Options, so they are part of a durable
// run's journal fingerprint — and re-plan decisions are themselves
// checkpointed, so resumes replay the same switches.
func WithReplan(minQuality float64) ClientOption {
	return func(c *clientConfig) {
		c.opts.Replan.Enabled = true
		c.opts.Replan.MinQuality = minQuality
	}
}

// WithJournal makes runs durable: Run and RunStream record every
// marketplace interaction and breaker checkpoint into a fresh
// write-ahead journal at path (which must not exist yet), and Resume
// picks an interrupted run back up with zero duplicate HIT posting.
func WithJournal(path string) ClientOption {
	return func(c *clientConfig) { c.journal = path }
}

// WithBudget caps the client's total crowd spend in dollars across
// all its runs; a run that would exceed it stops posting and fails
// with ErrBudgetExceeded. 0 means unlimited.
func WithBudget(dollars float64) ClientOption {
	return func(c *clientConfig) { c.budget, c.hasBudget = dollars, true }
}

// WithStreamChunk sets the streaming executor's HIT chunk size and
// posting lookahead.
func WithStreamChunk(hits, lookahead int) ClientOption {
	return func(c *clientConfig) {
		c.opts.StreamChunkHITs = hits
		c.opts.StreamLookahead = lookahead
	}
}

// NewClient builds a client over a marketplace.
func NewClient(market Marketplace, opts ...ClientOption) *Client {
	var cfg clientConfig
	for _, o := range opts {
		o(&cfg)
	}
	c := &Client{journal: cfg.journal}
	m := market
	if cfg.hasBudget && cfg.budget > 0 {
		c.budget = &service.Tenant{ID: "client", BudgetDollars: cfg.budget, Ledger: cost.NewLedger()}
		m = &service.BudgetGate{Tenant: c.budget, Label: "client", Inner: market}
	}
	c.eng = NewEngine(m, cfg.opts)
	if cfg.catalog != nil {
		c.eng.Catalog = cfg.catalog
	}
	if cfg.library != nil {
		c.eng.Library = cfg.library
	}
	c.eng.Answers = cfg.answers
	if cfg.obstats != nil {
		c.eng.ObStats = cfg.obstats
	}
	return c
}

// Engine exposes the underlying engine (catalog and library
// registration, ledger access, option inspection).
func (c *Client) Engine() *Engine { return c.eng }

// Ledger is the client's cost ledger.
func (c *Client) Ledger() *Ledger { return c.eng.Ledger }

// SpentDollars is the budget-gated spend so far (0 when no budget was
// configured — read Ledger for unbudgeted accounting).
func (c *Client) SpentDollars() float64 {
	if c.budget == nil {
		return 0
	}
	return c.budget.SpentDollars()
}

// Run executes one query. With WithJournal the run is durable: if the
// process crashes — or ctx is cancelled — partway through, Resume
// with the same configuration and query picks the run back up. On
// success the journal is sealed "complete"; on error it is sealed with
// the reason and remains resumable.
func (c *Client) Run(ctx context.Context, src string) (*Relation, *ExecStats, error) {
	return c.RunStream(ctx, src, nil)
}

// RunStream executes one query, delivering result batches to sink as
// the executor produces them; the materialized relation is still
// returned. Durable journaling applies as in Run.
func (c *Client) RunStream(ctx context.Context, src string, sink StreamSink) (*Relation, *ExecStats, error) {
	if c.journal == "" {
		return run(ctx, c.eng, src, sink)
	}
	j, err := wal.Create(c.journal, wal.Meta{
		Query:       src,
		Backend:     c.backend(),
		Fingerprint: c.fingerprint(src),
	})
	if err != nil {
		return nil, nil, err
	}
	return c.runJournaled(ctx, src, j, sink)
}

// Resume re-executes a durable run from the client's journal; it
// requires WithJournal. Recorded group results replay from disk
// without touching the marketplace, breaker checkpoints are verified
// (ErrJournalDiverged on mismatch), and execution continues live from
// the last consistent frontier. Groups whose intent committed but
// whose result did not are re-posted, which both backends absorb
// idempotently (MTurk re-attaches to still-live HITs by
// UniqueRequestToken; the simulator re-derives the same deterministic
// answers). The client must be configured as for the original run —
// same query, options, and backend kind — or Resume refuses the
// journal. Resuming a journal sealed "complete" replays the whole run
// and returns the same result.
func (c *Client) Resume(ctx context.Context, src string) (*Relation, *ExecStats, error) {
	if c.journal == "" {
		return nil, nil, fmt.Errorf("qurk: Resume needs a journal (configure the client with WithJournal)")
	}
	j, err := wal.Open(c.journal)
	if err != nil {
		return nil, nil, err
	}
	if got, want := j.Meta().Fingerprint, c.fingerprint(src); got != want {
		j.Close()
		return nil, nil, fmt.Errorf("qurk: journal %s was written by a different query or engine configuration (fingerprint %#x, want %#x)", c.journal, got, want)
	}
	return c.runJournaled(ctx, src, j, nil)
}

// backend names the client's marketplace in its journals: its Go type.
func (c *Client) backend() string { return fmt.Sprintf("%T", c.eng.Market) }

// fingerprint is what a journal must match to be replayable into a
// run of src on this client.
func (c *Client) fingerprint(src string) uint64 {
	return service.Fingerprint(src, c.eng.Options, c.backend())
}

// runJournaled runs src on a shallow engine copy whose marketplace is
// wrapped with the journal, then seals and closes the journal. The
// copy shares the client's ledger and answer store, so accounting
// lands where it always does.
func (c *Client) runJournaled(ctx context.Context, src string, j *wal.Journal, sink StreamSink) (*Relation, *ExecStats, error) {
	defer j.Close()
	e := *c.eng
	e.Market = wal.NewMarket(c.eng.Market, j)
	e.Journal = j
	out, st, err := run(ctx, &e, src, sink)
	if err != nil {
		// Best effort: the journal is already consistent record by
		// record; the seal only annotates why the run stopped.
		_ = j.Seal("interrupted: " + err.Error())
		return nil, st, err
	}
	if serr := j.Seal(wal.SealComplete); serr != nil {
		return out, st, serr
	}
	return out, st, nil
}

// run parses and plans src against e's task library, pins the
// engine's options into the plan, then executes it.
func run(ctx context.Context, e *Engine, src string, sink StreamSink) (*Relation, *ExecStats, error) {
	root, err := plan.BuildPinned(src, e.Library, e.Options)
	if err != nil {
		return nil, nil, err
	}
	return exec.Run(ctx, e, root, sink)
}

// Optimize parses and plans a query, then runs the free cost-based
// operator selection pass against the client's catalog cardinalities,
// options, and stats store: it picks every crowd node's interface
// itself, rather than the Options-pinned ones Run executes (and Explain
// shows). The returned CostedPlan's Root carries the chosen physical
// interfaces and executes them via RunPlan. budgetDollars 0 means
// unconstrained.
func (c *Client) Optimize(src string, budgetDollars float64) (*CostedPlan, error) {
	root, err := plan.BuildQuery(src, c.eng.Library)
	if err != nil {
		return nil, err
	}
	return plan.OptimizeFor(c.eng, root, budgetDollars)
}

// Explain renders the costed physical plan Run executes for one query
// — the client's options pinned into the plan: each crowd operator's
// interface (join Simple/NaiveBatch/SmartBatch, POSSIBLY pre-filter
// on/off, sort Compare/Rate/Hybrid), its estimated HITs, dollars, and
// quality, and the plan totals against the budget — a SQL EXPLAIN for
// crowd queries. Optimize(src, budget).Render() shows the free
// optimizer's plan instead.
func (c *Client) Explain(src string, opts ...ExplainOptions) (string, error) {
	var eo ExplainOptions
	if len(opts) > 0 {
		eo = opts[0]
	}
	root, err := plan.BuildPinned(src, c.eng.Library, c.eng.Options)
	if err != nil {
		return "", err
	}
	cp, err := plan.OptimizeFor(c.eng, root, eo.BudgetDollars)
	if err != nil {
		return "", err
	}
	if eo.Actual == nil {
		return cp.Render(), nil
	}
	var actual []plan.OpActual
	for _, op := range eo.Actual.Operators {
		actual = append(actual, plan.OpActual{Label: op.Label, HITs: op.HITs})
	}
	// Fold in the run's observed statistics (selectivities, POSSIBLY
	// pass fractions, sort group sizes) so est-vs-actual shows what the
	// crowd measured, not just how many HITs it cost.
	for _, ob := range eo.Actual.ObservedStats() {
		oa := plan.OpActual{Label: ob.Label}
		switch ob.Kind {
		case obstats.KindSelectivity:
			oa.Selectivity, oa.SelectivityWeight = ob.Value, ob.Weight
		case obstats.KindPassFraction:
			oa.PassFraction, oa.PassFractionWeight = ob.Value, ob.Weight
		case obstats.KindGroupSize:
			oa.GroupSize, oa.GroupSizeWeight = ob.Value, ob.Weight
		default:
			continue
		}
		actual = append(actual, oa)
	}
	return cp.RenderWithActual(actual), nil
}

// --- Built-in dataset bundles ---

// DatasetBundle packages one built-in dataset ready for a Client: its
// tables in a catalog, its task templates in a library, and its
// ground-truth oracle for the simulated marketplace.
type DatasetBundle struct {
	// Name is the canonical dataset name.
	Name string
	// Catalog holds the dataset's tables.
	Catalog *Catalog
	// Library holds the dataset's task templates.
	Library *Library
	// Oracle answers the dataset's questions with ground truth (feed
	// it to NewSimMarket).
	Oracle Oracle
}

// OpenDataset builds a built-in dataset by name (celebrities, squares,
// animals, movie). n sizes the generated datasets (celebrity count,
// square count); seed drives their generation.
func OpenDataset(name string, n int, seed int64) (*DatasetBundle, error) {
	b := &DatasetBundle{Catalog: NewCatalog(), Library: NewLibrary()}
	switch strings.ToLower(name) {
	case "celebrities", "celebs", "celeb":
		b.Name = "celebrities"
		d := NewCelebrities(CelebrityConfig{N: n, Seed: seed})
		b.Oracle = d.Oracle()
		b.Catalog.Register(d.Celeb)
		b.Catalog.Register(d.Photos)
		for _, t := range []Task{IsFemaleTask(), SamePersonTask(), GenderTask(), HairColorTask(), SkinColorTask()} {
			b.Library.MustRegister(t)
		}
	case "squares":
		b.Name = "squares"
		s := NewSquares(n)
		b.Oracle = s.Oracle()
		b.Catalog.Register(s.Rel)
		b.Library.MustRegister(SquareSorterTask())
	case "animals":
		b.Name = "animals"
		a := NewAnimals()
		b.Oracle = a.Oracle()
		b.Catalog.Register(a.Rel)
		for _, t := range []Task{AnimalSizeTask(), DangerousTask(), SaturnTask(), AnimalInfoTask()} {
			b.Library.MustRegister(t)
		}
	case "movie":
		b.Name = "movie"
		m := NewMovie(MovieConfig{Seed: seed})
		b.Oracle = m.Oracle()
		b.Catalog.Register(m.Actors)
		b.Catalog.Register(m.Scenes)
		for _, t := range []Task{InSceneTask(), NumInSceneTask(), QualityTask()} {
			b.Library.MustRegister(t)
		}
	default:
		return nil, fmt.Errorf("qurk: unknown dataset %q (want celebrities, squares, animals, or movie)", name)
	}
	return b, nil
}

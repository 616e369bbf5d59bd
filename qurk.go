// Package qurk is a Go implementation of Qurk, the crowd-powered
// declarative query processor from "Human-powered Sorts and Joins"
// (Marcus, Wu, Karger, Madden, Miller — PVLDB 5(1), 2011).
//
// Qurk runs SQL-like queries whose filter, join, and sort operators are
// executed by a crowd marketplace. This package is the public facade: it
// re-exports the pieces a downstream user needs — the engine, the task
// templates, the simulated marketplace, the crowd operators, and the
// paper's datasets — while the implementations live in internal/
// packages.
//
// # Quick start
//
//	d, _ := qurk.OpenDataset("celebrities", 30, 1)
//	client := qurk.NewClient(qurk.NewSimMarket(qurk.DefaultMarketConfig(1), d.Oracle),
//	    qurk.WithDataset(d))
//	out, stats, err := client.Run(ctx,
//	    `SELECT c.name FROM celeb AS c WHERE isFemale(c.img)`)
//
// Queries support the paper's dialect: crowd UDFs in WHERE (Filter
// tasks), JOIN ... ON (EquiJoin tasks) with POSSIBLY feature filters
// (Generative tasks), and ORDER BY (Rank tasks, executed by comparison,
// rating, or the hybrid algorithm). TASK templates can also be written
// in the paper's DSL and parsed with ParseScript.
package qurk

import (
	"errors"
	"fmt"

	"qurk/internal/adaptive"
	"qurk/internal/combine"
	"qurk/internal/core"
	"qurk/internal/cost"
	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/exec"
	"qurk/internal/hit"
	"qurk/internal/join"
	"qurk/internal/mturk"
	"qurk/internal/plan"
	"qurk/internal/query"
	"qurk/internal/relation"
	"qurk/internal/sortop"
	"qurk/internal/stats"
	"qurk/internal/task"
	"qurk/internal/wal"
)

// --- Relational substrate ---

type (
	// Relation is an in-memory table.
	Relation = relation.Relation
	// Schema describes a relation's columns.
	Schema = relation.Schema
	// Column is one schema attribute.
	Column = relation.Column
	// Tuple is one row.
	Tuple = relation.Tuple
	// Value is a dynamically typed scalar.
	Value = relation.Value
	// Catalog is a named table collection.
	Catalog = relation.Catalog
	// LoadOptions controls CSV/TSV loading.
	LoadOptions = relation.LoadOptions
)

// Value and schema constructors.
var (
	NewSchema   = relation.NewSchema
	MustSchema  = relation.MustSchema
	NewRelation = relation.New
	NewTuple    = relation.NewTuple
	Text        = relation.Text
	Int         = relation.Int
	Float       = relation.Float
	Bool        = relation.Bool
	URL         = relation.URL
	Unknown     = relation.Unknown
	LoadFile    = relation.LoadFile
)

// Column kinds.
const (
	KindText  = relation.KindText
	KindInt   = relation.KindInt
	KindFloat = relation.KindFloat
	KindBool  = relation.KindBool
	KindURL   = relation.KindURL
)

// --- Task templates (paper §2.1–§2.4) ---

type (
	// Task is the common template interface.
	Task = task.Task
	// FilterTask is a yes/no question per tuple.
	FilterTask = task.Filter
	// GenerativeTask produces field values per tuple.
	GenerativeTask = task.Generative
	// RankTask labels the sort interfaces.
	RankTask = task.Rank
	// EquiJoinTask labels the join interfaces.
	EquiJoinTask = task.EquiJoin
	// TaskField is one generative output field.
	TaskField = task.Field
	// Prompt is an HTML snippet with tuple substitutions.
	Prompt = task.Prompt
)

// Prompt and response constructors.
var (
	NewPrompt  = task.NewPrompt
	MustPrompt = task.MustPrompt
	TextInput  = task.TextInput
	Radio      = task.Radio
)

// --- Crowd marketplace ---

type (
	// Marketplace abstracts the crowd backend (sync + async posting).
	Marketplace = crowd.Marketplace
	// MarketAsync is the outcome RunAsync delivers.
	MarketAsync = crowd.Async
	// SimMarket is the parallel deterministic marketplace simulator.
	SimMarket = crowd.SimMarket
	// MarketConfig parametrizes the simulator.
	MarketConfig = crowd.Config
	// Oracle supplies ground truth to the simulator.
	Oracle = crowd.Oracle
	// Worker is one simulated Turker.
	Worker = crowd.Worker
	// HIT is one posted unit of crowd work.
	HIT = hit.HIT
	// Assignment is one worker's completed HIT pass.
	Assignment = hit.Assignment
)

var (
	// NewSimMarket builds a simulated marketplace over an oracle.
	NewSimMarket = crowd.NewSimMarket
	// DefaultMarketConfig returns the calibrated simulator defaults.
	DefaultMarketConfig = crowd.DefaultConfig
)

// --- Live MTurk backend (internal/mturk) ---

type (
	// MTurkClient posts HIT groups to a live MTurk-compatible REST
	// endpoint; it implements Marketplace, so an engine built over it
	// runs the same queries as over SimMarket.
	MTurkClient = mturk.Client
	// MTurkConfig parametrizes the live client (endpoint, credentials,
	// poll interval, assignment deadline).
	MTurkConfig = mturk.Config
	// MTurkOptions is the engine-level backend configuration embedded
	// in Options (Options.MTurk); mturk.FromOptions turns it into a
	// MTurkConfig.
	MTurkOptions = core.MTurkOptions
	// MTurkFakeServer is the in-process MTurk-compatible endpoint used
	// for recorded-HTTP tests and offline demos.
	MTurkFakeServer = mturk.FakeServer
	// MTurkFakeConfig parametrizes the fake marketplace's deterministic
	// worker behavior (answer policy, abandonment rate).
	MTurkFakeConfig = mturk.FakeConfig
	// MTurkClock abstracts wall time for the polling client.
	MTurkClock = mturk.Clock
	// MTurkFakeClock is a manually advancing clock for offline runs.
	MTurkFakeClock = mturk.FakeClock
	// MTurkRequestError is a failed MTurk API call.
	MTurkRequestError = mturk.RequestError
)

// MTurk endpoint URLs.
const (
	// MTurkSandboxEndpoint is the free requester sandbox (the default).
	MTurkSandboxEndpoint = mturk.SandboxEndpoint
	// MTurkProductionEndpoint posts HITs that cost real dollars.
	MTurkProductionEndpoint = mturk.ProductionEndpoint
)

var (
	// NewMTurkClient builds the live backend client.
	NewMTurkClient = mturk.New
	// MTurkFromOptions derives a client config from engine options.
	MTurkFromOptions = mturk.FromOptions
	// NewMTurkFakeServer starts the in-process fake endpoint.
	NewMTurkFakeServer = mturk.NewFakeServer
	// NewMTurkFakeClock starts a manually advancing clock.
	NewMTurkFakeClock = mturk.NewFakeClock
)

// --- Engine and query execution ---

type (
	// Engine bundles catalog, task library, marketplace, cost ledger,
	// and the optional answer store, journal and statistics store.
	Engine = core.Engine
	// Options are the engine-wide execution knobs.
	Options = core.Options
	// ReplanOptions controls adaptive mid-query re-optimization
	// (Options.Replan).
	ReplanOptions = core.ReplanOptions
	// Library resolves UDF names to task templates.
	Library = core.Library
	// ExecStats aggregates a query run's crowd spending, including the
	// pipelined end-to-end makespan on the virtual crowd clock.
	ExecStats = exec.Stats
	// StreamOperator is one node of the streaming Volcano executor: a
	// pull-based iterator over tuple batches.
	StreamOperator = exec.Operator
	// StreamBatch is a bounded run of tuples stamped with the simulated
	// crowd clock at which its rows became available.
	StreamBatch = exec.Batch
	// BreakerInfo describes one pipeline-breaking buffer machine-
	// readably: what it holds, its in-memory tuple bound, and whether
	// it spills to disk past the bound.
	BreakerInfo = exec.BreakerInfo
	// OpBreakers pairs an operator's display label with its breakers,
	// as returned by PipelineBreakers.
	OpBreakers = exec.OpBreakers
	// SortMethod selects the ORDER BY implementation.
	SortMethod = core.SortMethod
	// Ledger accounts HIT spending in dollars.
	Ledger = cost.Ledger
)

// Sort method constants.
const (
	SortCompare = core.SortCompare
	SortRate    = core.SortRate
	SortHybrid  = core.SortHybrid
)

var (
	// NewEngine creates an engine over a marketplace.
	NewEngine = core.NewEngine
	// RunPlan executes an already-built plan tree on an engine,
	// delivering result batches to a StreamSink (nil for none): the
	// way to run a CostedPlan's Root, or a hand-built plan once
	// PinPlan has annotated it.
	RunPlan = exec.Run
	// PinPlan annotates every crowd node of a plan that has no physical
	// annotation with the interfaces an engine's Options select — what
	// Client.Run does before it runs a query.
	PinPlan = plan.Pin
	// CompilePlan builds the streaming operator tree without executing
	// it; DescribePipeline renders it with pipeline breakers marked.
	CompilePlan = exec.Compile
	// DescribePipeline renders a compiled operator tree, marking each
	// pipeline breaker with its memory bound ("spills at N tuples"
	// when Options.BreakerMemTuples is positive).
	DescribePipeline = exec.Describe
	// PipelineBreakers lists a compiled operator tree's breakers
	// machine-readably (kind, in-memory tuple bound, whether it
	// spills) — the structured companion to DescribePipeline.
	PipelineBreakers = exec.PipelineBreakers
	// ParseQuery parses a query without executing it.
	ParseQuery = query.ParseQuery
	// ParseScript parses TASK definitions plus queries.
	ParseScript = query.ParseScript
	// BuildPlan compiles a statement against a task library.
	BuildPlan = plan.Build
	// ExplainPlan renders a plan tree (logical only; Client.Explain
	// adds the optimizer's costed choices).
	ExplainPlan = plan.Explain
	// OptimizePlan runs cost-based operator selection over a built plan
	// tree with explicit cardinalities and options.
	OptimizePlan = plan.Optimize
	// OptimizeOptionsFrom seeds optimizer options from engine options.
	OptimizeOptionsFrom = plan.OptimizeOptionsFrom
)

// Cost-based optimizer types (paper §2.6's minimize-HITs objective over
// the §3/§4 interface choices).
type (
	// CostedPlan is the optimizer's annotated plan plus estimates.
	CostedPlan = plan.CostedPlan
	// OpCost is one crowd operator's costed choice.
	OpCost = plan.OpCost
	// OptimizeOptions parametrizes the optimizer pass.
	OptimizeOptions = plan.OptimizeOptions
	// CardSource supplies base-table cardinalities (Catalog implements it).
	CardSource = plan.CardSource
	// CardMap is a literal CardSource.
	CardMap = plan.CardMap
	// JoinPhys, SortPhys, and BatchPhys are per-node physical choices.
	JoinPhys  = plan.JoinPhys
	SortPhys  = plan.SortPhys
	BatchPhys = plan.BatchPhys
)

// ExplainOptions configures Client.Explain's cost-based pass.
type ExplainOptions struct {
	// BudgetDollars constrains the optimizer's total crowd spend
	// (0 = unconstrained).
	BudgetDollars float64
	// Actual, when set, renders each crowd operator's actual posted
	// HITs from an executed run next to its estimate — the paper's §6
	// iterative-debugging loop (estimate, run, compare, recalibrate).
	Actual *ExecStats
}

// --- Direct operator access (paper §3 and §4) ---

type (
	// JoinOptions configures a crowd join run.
	JoinOptions = join.Options
	// JoinAlgorithm selects Simple/Naive/Smart.
	JoinAlgorithm = join.Algorithm
	// JoinResult is a crowd join outcome.
	JoinResult = join.Result
	// JoinPair is one candidate pair.
	JoinPair = join.Pair
	// JoinPairSeq streams candidate pairs into HIT batching without
	// materializing the cross product.
	JoinPairSeq = join.PairSeq
	// JoinMatch is one accepted pair with confidence.
	JoinMatch = join.Match
	// Feature is one POSSIBLY feature filter.
	Feature = join.Feature
	// ExtractOptions configures a feature-extraction pass.
	ExtractOptions = join.ExtractOptions
	// Extraction holds combined feature values for one relation.
	Extraction = join.Extraction
	// SelectionConfig holds the feature-pruning thresholds (§3.2).
	SelectionConfig = join.SelectionConfig
	// FeatureVerdict explains one feature's selection decision.
	FeatureVerdict = join.FeatureVerdict
	// CompareOptions configures a comparison sort.
	CompareOptions = sortop.CompareOptions
	// RateOptions configures a rating sort.
	RateOptions = sortop.RateOptions
	// HybridOptions configures the hybrid sort.
	HybridOptions = sortop.HybridOptions
	// MaxOptions configures the MAX/MIN tournament.
	MaxOptions = sortop.MaxOptions
	// CompareResult is a comparison sort outcome.
	CompareResult = sortop.CompareResult
	// RateResult is a rating sort outcome.
	RateResult = sortop.RateResult
	// HybridResult is a hybrid sort outcome.
	HybridResult = sortop.HybridResult
	// WindowStrategy selects the hybrid window scheme.
	WindowStrategy = sortop.WindowStrategy
	// Combiner merges multiple worker votes.
	Combiner = combine.Combiner
	// MajorityVote is the paper's default combiner.
	MajorityVote = combine.MajorityVote
	// QualityAdjust is the Ipeirotis et al. EM combiner.
	QualityAdjust = combine.QualityAdjust
)

// Join algorithms.
const (
	SimpleJoin = join.Simple
	NaiveJoin  = join.Naive
	SmartJoin  = join.Smart
)

// Hybrid window strategies.
const (
	RandomWindow     = sortop.RandomWindow
	ConfidenceWindow = sortop.ConfidenceWindow
	SlidingWindow    = sortop.SlidingWindow
)

var (
	// RunJoin executes a crowd join over explicit candidate pairs.
	RunJoin = join.Run
	// RunCrossJoin joins the full cross product.
	RunCrossJoin = join.RunCross
	// ExtractFeatures runs the feature-extraction linear pass.
	ExtractFeatures = join.Extract
	// ChooseFeatures applies the paper's three feature-pruning rules.
	ChooseFeatures = join.ChooseFeatures
	// FilteredPairs prunes a cross product to feature-compatible pairs.
	FilteredPairs = join.FilteredPairs
	// Compare runs the comparison-based sort.
	Compare = sortop.Compare
	// Rate runs the rating-based sort.
	Rate = sortop.Rate
	// Hybrid runs the rating-seeded, comparison-refined sort.
	Hybrid = sortop.Hybrid
	// Max runs the MAX/MIN tournament.
	Max = sortop.Max
	// NewQualityAdjust builds a configured QA combiner.
	NewQualityAdjust = combine.NewQualityAdjust
	// DefaultQAConfig is the paper's QA parametrization.
	DefaultQAConfig = combine.DefaultQAConfig
)

// --- Metrics (paper §3.2, §4.2) ---

var (
	// KendallTauB is the τ-b rank correlation.
	KendallTauB = stats.KendallTauB
	// TauBetweenOrders compares two item orderings.
	TauBetweenOrders = stats.TauBetweenOrders[int]
	// LinearRegression fits y = a + bx with R² and p-value.
	LinearRegression = stats.LinearRegression
)

// RatingMatrix holds categorical votes for Fleiss' κ.
type RatingMatrix = stats.RatingMatrix

// NewRatingMatrix creates an empty κ matrix.
var NewRatingMatrix = stats.NewRatingMatrix

// --- Datasets (paper §3.3.1, §4.2.1, §5) ---

type (
	// Celebrities is the celebrity join dataset.
	Celebrities = dataset.Celebrities
	// CelebrityConfig controls its generation.
	CelebrityConfig = dataset.CelebrityConfig
	// Squares is the synthetic square-sort dataset.
	Squares = dataset.Squares
	// Animals is the 27-item animal sort dataset.
	Animals = dataset.Animals
	// Movie is the end-to-end query dataset.
	Movie = dataset.Movie
	// MovieConfig controls its generation.
	MovieConfig = dataset.MovieConfig
)

// Dataset constructors.
var (
	// NewCelebrities generates the celebrity join dataset.
	NewCelebrities = dataset.NewCelebrities
	// NewSquares generates the synthetic square-sort dataset.
	NewSquares = dataset.NewSquares
	// NewAnimals returns the 27-item animal sort dataset.
	NewAnimals = dataset.NewAnimals
	// NewMovie generates the end-to-end movie dataset.
	NewMovie = dataset.NewMovie
)

// The paper's task templates, ready to register.
var (
	// IsFemaleTask is the §2.1 celebrity gender filter.
	IsFemaleTask = dataset.IsFemaleTask
	// SamePersonTask is the §3 celebrity photo join.
	SamePersonTask = dataset.SamePersonTask
	// GenderTask extracts the gender POSSIBLY feature.
	GenderTask = dataset.GenderTask
	// HairColorTask extracts the hair-color POSSIBLY feature.
	HairColorTask = dataset.HairColorTask
	// SkinColorTask extracts the skin-color POSSIBLY feature.
	SkinColorTask = dataset.SkinColorTask
	// SquareSorterTask ranks squares by size (§4.2.1's Q1).
	SquareSorterTask = dataset.SquareSorterTask
	// AnimalSizeTask ranks animals by size (Q2).
	AnimalSizeTask = dataset.AnimalSizeTask
	// DangerousTask ranks animals by dangerousness (Q3).
	DangerousTask = dataset.DangerousTask
	// SaturnTask ranks animals by Saturn-belonging (Q4, ambiguous).
	SaturnTask = dataset.SaturnTask
	// AnimalInfoTask generates animal facts (§2.2).
	AnimalInfoTask = dataset.AnimalInfoTask
	// InSceneTask joins actors with scenes (§5).
	InSceneTask = dataset.InSceneTask
	// NumInSceneTask extracts the scene's person count (§5 POSSIBLY).
	NumInSceneTask = dataset.NumInSceneTask
	// QualityTask ranks scenes by how flattering they are (§5).
	QualityTask = dataset.QualityTask
	// CelebrityFeatures returns the gender/hair/skin POSSIBLY filters.
	CelebrityFeatures = dataset.CelebrityFeatures
)

// DollarCost returns the dollar cost of posting HITs at the paper's
// pricing ($0.015 per assignment).
func DollarCost(hits, assignmentsPerHIT int) float64 {
	return cost.Dollars(hits, assignmentsPerHIT)
}

// --- Durable runs and crash recovery (internal/wal) ---

type (
	// Journal is the append-only, fsync-on-commit write-ahead journal a
	// durable run records marketplace traffic and breaker checkpoints
	// into; Client.Resume replays it after a crash.
	Journal = wal.Journal
	// JournalMeta identifies the query a journal belongs to;
	// Client.Resume refuses a journal whose fingerprint does not match.
	JournalMeta = wal.Meta
	// DurableMarket is the journaling Marketplace wrapper durable runs
	// post through: intent record before each group, result record
	// after, replay-from-disk on resume.
	DurableMarket = wal.Market
)

var (
	// CreateJournal starts a fresh journal file (fails if it exists).
	CreateJournal = wal.Create
	// OpenJournal opens an existing journal, truncating any torn tail
	// record left by a crash mid-write.
	OpenJournal = wal.Open
	// NewDurableMarket wraps a marketplace so every group posted
	// through it is journaled (and replayed on resume).
	NewDurableMarket = wal.NewMarket
	// ErrJournalDiverged reports that a resumed run recomputed breaker
	// state that no longer matches the journal.
	ErrJournalDiverged = wal.ErrDiverged
)

// --- Adaptive mechanisms (paper §6 future work, implemented) ---

type (
	// VoteConfig controls sequential per-question vote allocation.
	VoteConfig = adaptive.VoteConfig
	// AdaptiveFilterResult reports an adaptive filter run.
	AdaptiveFilterResult = adaptive.AdaptiveFilterResult
	// BatchTuneConfig bounds the batch-size binary search.
	BatchTuneConfig = adaptive.BatchTuneConfig
	// ProbeResult is one batch-size trial's outcome.
	ProbeResult = adaptive.ProbeResult
	// BudgetStage is one operator's spending options.
	BudgetStage = adaptive.BudgetStage
	// BudgetPlan is the whole-plan budget allocator's decision.
	BudgetPlan = adaptive.BudgetPlan
	// GoldScreen bans workers who fail planted gold questions.
	GoldScreen = combine.GoldScreen
)

var (
	// RunAdaptiveFilter spends votes only where the posterior is
	// uncertain (§2.1, §6).
	RunAdaptiveFilter = adaptive.RunAdaptiveFilter
	// RunAdaptiveFilterContext stops posting further probe rounds once
	// ctx is done (the adaptive filter is a pipeline breaker).
	RunAdaptiveFilterContext = adaptive.RunAdaptiveFilterContext
	// PosteriorMajority is P(majority answer | votes) under a uniform
	// prior.
	PosteriorMajority = adaptive.PosteriorMajority
	// TuneBatchSize binary-searches the largest workable batch (§6).
	TuneBatchSize = adaptive.TuneBatchSize
	// FilterProbe builds a marketplace-backed probe for TuneBatchSize.
	FilterProbe = adaptive.FilterProbe
	// AllocateBudget fits assignment levels to a dollar budget (§6).
	AllocateBudget = adaptive.AllocateBudget
	// NewGoldScreen wraps a combiner with gold-standard screening (§7).
	NewGoldScreen = combine.NewGoldScreen
)

// WorkerModerator is the optional marketplace extension for banning,
// unbanning, and bonusing individual workers. Both backends implement
// it: the simulator against its synthetic population, the MTurk
// client via CreateWorkerBlock / DeleteWorkerBlock / SendBonus.
type WorkerModerator = crowd.WorkerModerator

// EnforceWorkerBans pushes a set of worker bans to the marketplace.
// It returns the workers actually banned (in input order) and stops
// at the first marketplace error. Markets without moderation support
// (e.g. a bare test stub) report ErrNoModeration.
func EnforceWorkerBans(market crowd.Marketplace, workers []string, reason string) ([]string, error) {
	mod, ok := market.(crowd.WorkerModerator)
	if !ok {
		return nil, ErrNoModeration
	}
	banned := make([]string, 0, len(workers))
	for _, w := range workers {
		if err := mod.BlockWorker(w, reason); err != nil {
			return banned, fmt.Errorf("qurk: banning %s: %w", w, err)
		}
		banned = append(banned, w)
	}
	return banned, nil
}

// EnforceGoldScreenBans carries a GoldScreen's verdicts to the
// marketplace: every worker the §6 gold-standard screen banned during
// vote combination is blocked from future tasks, so simulator-style
// bans reach the real marketplace too. Returns the workers banned.
func EnforceGoldScreenBans(market crowd.Marketplace, gs *GoldScreen) ([]string, error) {
	return EnforceWorkerBans(market, gs.Banned(), "failed gold-standard screening questions")
}

// ErrNoModeration reports a marketplace without worker-moderation
// support.
var ErrNoModeration = errors.New("qurk: marketplace does not support worker moderation")

package core

import (
	"fmt"
	"strings"

	"qurk/internal/combine"
	"qurk/internal/cost"
	"qurk/internal/crowd"
	"qurk/internal/hit"
	"qurk/internal/join"
	"qurk/internal/query"
	"qurk/internal/relation"
	"qurk/internal/task"
)

// LibraryEntry is a registered task plus its DSL formal parameters
// (empty for tasks constructed in Go against concrete column names).
type LibraryEntry struct {
	Task   task.Task
	Params []string
}

// Library resolves UDF names to task templates for the planner.
type Library struct {
	entries map[string]LibraryEntry
}

// NewLibrary returns an empty library.
func NewLibrary() *Library { return &Library{entries: map[string]LibraryEntry{}} }

// Register adds a task with optional formal parameters.
func (l *Library) Register(t task.Task, params ...string) error {
	if err := t.Validate(); err != nil {
		return err
	}
	key := strings.ToLower(t.TaskName())
	if _, dup := l.entries[key]; dup {
		return fmt.Errorf("core: duplicate task %q", t.TaskName())
	}
	l.entries[key] = LibraryEntry{Task: t, Params: params}
	return nil
}

// MustRegister panics on error (examples, tests).
func (l *Library) MustRegister(t task.Task, params ...string) {
	if err := l.Register(t, params...); err != nil {
		panic(err)
	}
}

// LoadScript registers every TASK definition from a parsed script.
func (l *Library) LoadScript(s *query.Script) error {
	for _, td := range s.Tasks {
		t, err := query.BuildTask(td)
		if err != nil {
			return err
		}
		if err := l.Register(t, td.Params...); err != nil {
			return err
		}
	}
	return nil
}

// Lookup resolves a task by name.
func (l *Library) Lookup(name string) (LibraryEntry, error) {
	e, ok := l.entries[strings.ToLower(name)]
	if !ok {
		return LibraryEntry{}, fmt.Errorf("core: unknown task %q", name)
	}
	return e, nil
}

// Resolve implements the planner's TaskSource interface.
func (l *Library) Resolve(name string) (task.Task, []string, error) {
	e, err := l.Lookup(name)
	if err != nil {
		return nil, nil, err
	}
	return e.Task, e.Params, nil
}

// Names lists registered tasks.
func (l *Library) Names() []string {
	out := make([]string, 0, len(l.entries))
	for n := range l.entries {
		out = append(out, n)
	}
	return out
}

// SortMethod selects the ORDER BY implementation (paper §4).
type SortMethod uint8

const (
	// SortCompare uses the comparison interface (quadratic HITs).
	SortCompare SortMethod = iota
	// SortRate uses the rating interface (linear HITs).
	SortRate
	// SortHybrid seeds with ratings and refines with comparisons.
	SortHybrid
)

// String names the method.
func (s SortMethod) String() string {
	switch s {
	case SortCompare:
		return "Compare"
	case SortRate:
		return "Rate"
	case SortHybrid:
		return "Hybrid"
	default:
		return fmt.Sprintf("SortMethod(%d)", uint8(s))
	}
}

// Options are the engine-wide execution knobs — the parameters the paper
// tunes per experiment (batch sizes, interfaces, combiners, assignment
// counts).
type Options struct {
	// Assignments per HIT (default 5).
	Assignments int
	// FilterBatch / GenerativeBatch / JoinBatch / ExtractBatch /
	// RateBatch are merge batch sizes (defaults 5, 5, 5, 4, 5).
	FilterBatch, GenerativeBatch, JoinBatch, ExtractBatch, RateBatch int
	// JoinAlgorithm with its grid shape (default Naive 5).
	JoinAlgorithm      join.Algorithm
	GridRows, GridCols int
	// ExtractCombined asks all POSSIBLY features in one interface
	// (default true — the paper found it cheaper and more accurate).
	ExtractCombined bool
	// AutoSelectFeatures enables §3.2's automatic feature pruning: a
	// crowd join over a sample of the cross product estimates each
	// POSSIBLY feature's result loss, and features that are ambiguous
	// (low κ), unselective, or error-prone are discarded before the
	// full join ("the system automatically selects which features to
	// apply").
	AutoSelectFeatures bool
	// FeatureSelection holds the §3.2 thresholds when
	// AutoSelectFeatures is on.
	FeatureSelection join.SelectionConfig
	// SortMethod with its parameters (defaults: Compare, group 5).
	SortMethod       SortMethod
	CompareGroupSize int
	HybridIterations int
	HybridStep       int
	// Combiner is "MajorityVote" (default) or "QualityAdjust".
	Combiner string
	// Seed drives operator-internal randomness (group covers, context
	// samples).
	Seed int64
	// ExecBatch is the number of tuples per batch flowing between
	// streaming executor operators (default 32). Query results are
	// bit-identical at any setting; it only tunes scheduling
	// granularity and per-batch overhead.
	ExecBatch int
	// StreamChunkHITs is how many HITs a streaming crowd operator
	// accumulates before posting them to the marketplace as one
	// sub-group (default 8). Crowd answers are bit-identical at any
	// setting — HIT identity and content never depend on it — but
	// latency modeling does: smaller chunks start sooner and overlap
	// more, larger chunks ramp marketplace throughput better.
	StreamChunkHITs int
	// StreamLookahead bounds how many posted-but-uncollected sub-groups
	// a streaming crowd operator keeps in flight (default 2). It caps
	// the HITs wasted when a downstream LIMIT stops pulling.
	StreamLookahead int
	// RefusedRetries bounds how many times a streaming crowd operator
	// re-posts the questions of a refused HIT (batch too effortful for
	// the price) at half the batch size before giving up (default 2;
	// -1 disables). Questions that exhaust the budget resolve with zero
	// votes and are reported in Stats.Incomplete — previously ALL
	// refused questions were silently rejected.
	RefusedRetries int
	// BreakerMemTuples caps the tuples a pipeline breaker holds in
	// memory (0 = unlimited). With a positive cap the machine sort
	// becomes an external merge sort over spilled runs, the crowd sort
	// externally partitions its input by group key, and the crowd
	// join's build side spills to disk partitions — all via
	// internal/spill's temp-dir run files, merged k-way with
	// deterministic tie-breaks, so results are bit-identical at any
	// cap. One crowd-sorted group (and the streaming operators' own
	// in-flight bookkeeping) still materializes in memory.
	BreakerMemTuples int
	// SplitSortGroups bounds crowd-sort memory for oversized groups:
	// with BreakerMemTuples > 0, a group larger than the cap splits
	// into consecutive windows of at most cap tuples, each window is
	// crowd-sorted independently, and the sorted windows merge through
	// the external sorter on normalized within-window rank — the
	// paper's windowed-sort approximation (§4.3's bounded-comparison
	// spirit), keeping one window rather than one group in memory.
	// Results stay bit-identical at any ExecBatch/StreamChunkHITs for a
	// fixed cap, but the cap becomes plan-shaping for oversized groups
	// (different sort HITs than the unsplit run), so this is opt-in and
	// off by default.
	SplitSortGroups bool
	// ExpiredRetries bounds how many times a streaming crowd operator
	// re-posts a HIT some of whose assignments expired — accepted by a
	// worker but never submitted before the assignment deadline
	// (default 2; -1 disables). The re-posted HIT carries the same
	// questions but requests only the missing assignments, and its ID
	// derives from the expired HIT's lineage so results stay
	// bit-identical at any StreamChunkHITs/lookahead setting. Votes
	// already collected before the expiry are kept and merged with the
	// retry's. Questions that exhaust the budget resolve with whatever
	// votes arrived; those left with zero votes are reported in
	// Stats.Incomplete.
	ExpiredRetries int
	// MTurk configures the live Mechanical Turk marketplace backend
	// (internal/mturk) for deployments that post real HITs instead of
	// simulating them. SimMarket runs ignore it.
	MTurk MTurkOptions
	// Replan enables adaptive mid-query re-optimization: the streaming
	// executor re-costs interface choices at pipeline breakers from
	// statistics observed during the run (see ReplanOptions). Off by
	// default, so plans and HIT identity are unchanged unless opted in.
	Replan ReplanOptions
	// DeadlineHours is a wall-clock budget for the whole query,
	// measured on the service's injectable clock from submission. Zero
	// (the default) means no deadline. An overdue query fails alone —
	// its journal is sealed "interrupted" so it stays resumable — while
	// other queries on the same daemon keep running. Crowd work posted
	// before the deadline is spent either way (the marketplace has no
	// recall); the deadline bounds how long the service keeps waiting,
	// which matters most while a marketplace outage holds the circuit
	// breaker open.
	DeadlineHours float64
}

// ReplanOptions controls adaptive mid-query re-optimization. Switch
// decisions derive only from count-based boundaries (tuple and pair
// ordinals), never from timing, so the same query+seed re-plans at the
// same point and produces identical rows at any ExecBatch /
// StreamChunkHITs / partition setting. Durable runs journal every
// re-plan decision as a breaker checkpoint, and resumes verify it.
type ReplanOptions struct {
	// Enabled turns mid-query re-optimization on.
	Enabled bool
	// ProbeTuples is how many probe-side (left) tuples a streaming
	// join observes before re-costing NaiveBatch vs SmartBatch for
	// the remaining pairs from the measured POSSIBLY pass fraction
	// (default 16). Crowd sorts re-cost per group regardless, since a
	// group's true size is known the moment it materializes.
	ProbeTuples int
	// MinQuality is the quality floor a re-planned interface must
	// clear before the executor switches to it (default 0.85, the
	// optimizer's own floor). A cheaper interface below the floor is
	// rejected and the original plan keeps running.
	MinQuality float64
}

// MTurkOptions are the knobs a live MTurk deployment needs; the zero
// value targets the requester sandbox with credentials from the
// standard AWS environment variables. internal/mturk consumes these via
// mturk.FromOptions.
type MTurkOptions struct {
	// Endpoint is the MTurk REST endpoint base URL. Empty selects the
	// sandbox (mturk-requester-sandbox.us-east-1.amazonaws.com); any
	// compatible endpoint — including an in-process fake for tests —
	// works.
	Endpoint string
	// Region is the AWS region used for request signing (default
	// us-east-1, the only region MTurk serves).
	Region string
	// AccessKey and SecretKey are the AWS credentials the requests are
	// signed with. Empty falls back to AWS_ACCESS_KEY_ID /
	// AWS_SECRET_ACCESS_KEY.
	AccessKey, SecretKey string
	// SessionToken is the optional STS session token for temporary
	// credentials (AWS_SESSION_TOKEN when empty).
	SessionToken string
	// PollIntervalSeconds is how long the client waits between
	// ListAssignmentsForHIT sweeps (default 15).
	PollIntervalSeconds float64
	// MaxPollIntervalSeconds caps the exponential backoff the poll
	// loop applies while sweeps make no progress (default 8× the poll
	// interval); any new assignment resets the cadence.
	MaxPollIntervalSeconds float64
	// AssignmentDurationSeconds is how long an accepted assignment may
	// stay unsubmitted before it expires (default 600). Together with
	// ExpiredRetries this is the timeout policy: assignments still
	// missing at the deadline are reported expired and their HIT's
	// questions re-posted.
	AssignmentDurationSeconds int
	// LifetimeSeconds is how long a posted HIT stays visible on the
	// marketplace (default 3600).
	LifetimeSeconds int
	// SkipApprove leaves submitted assignments unapproved instead of
	// auto-approving them on collection (default false: approve, so
	// workers are paid promptly as the paper's experiments did).
	SkipApprove bool
}

func (o *Options) fillDefaults() {
	if o.Assignments == 0 {
		o.Assignments = 5
	}
	if o.FilterBatch == 0 {
		o.FilterBatch = 5
	}
	if o.GenerativeBatch == 0 {
		o.GenerativeBatch = 5
	}
	if o.JoinBatch == 0 {
		o.JoinBatch = 5
	}
	if o.ExtractBatch == 0 {
		o.ExtractBatch = 4
	}
	if o.RateBatch == 0 {
		o.RateBatch = 5
	}
	if o.GridRows == 0 {
		o.GridRows = 3
	}
	if o.GridCols == 0 {
		o.GridCols = 3
	}
	if o.CompareGroupSize == 0 {
		o.CompareGroupSize = 5
	}
	if o.HybridIterations == 0 {
		o.HybridIterations = 20
	}
	if o.HybridStep == 0 {
		o.HybridStep = 6
	}
	if o.Combiner == "" {
		o.Combiner = "MajorityVote"
	}
	// Non-positive values are configuration errors (a zero-lookahead
	// pipeline can never post); clamp to defaults rather than panic or
	// silently return empty results.
	if o.ExecBatch <= 0 {
		o.ExecBatch = 32
	}
	if o.StreamChunkHITs <= 0 {
		o.StreamChunkHITs = 8
	}
	if o.StreamLookahead <= 0 {
		o.StreamLookahead = 2
	}
	if o.RefusedRetries == 0 {
		o.RefusedRetries = 2
	}
	if o.ExpiredRetries == 0 {
		o.ExpiredRetries = 2
	}
	if o.Replan.Enabled {
		if o.Replan.ProbeTuples <= 0 {
			o.Replan.ProbeTuples = 16
		}
		if o.Replan.MinQuality <= 0 {
			o.Replan.MinQuality = 0.85
		}
	}
}

// JournalSink receives breaker checkpoints from the executor: a digest
// of a pipeline breaker's materialized state (sort-group order, join
// build table, extraction carry, adaptive-filter round) that a durable
// run appends to its write-ahead journal and a resumed run verifies
// against it. internal/wal's Journal implements it; the field is nil
// for non-durable runs and operators must treat it as optional.
type JournalSink interface {
	// Checkpoint records or verifies one breaker checkpoint. kind names
	// the breaker class, label the operator instance (typically its plan
	// path), digest its state fingerprint, and clock the crowd-hours
	// watermark when it was reached.
	Checkpoint(kind, label string, digest uint64, clock float64) error
}

// AnswerStore is a content-addressed vote store consulted before a
// crowd question is posted and fed after its votes fold — the paper's
// task cache (Fig. 1, §2.6). internal/answerstore implements it, in
// memory or backed by a file, and the multi-tenant service shares one
// between queries and tenants. Implementations must be safe for
// concurrent use: one store serves many queries at once.
type AnswerStore interface {
	// Lookup returns stored votes for a question with identical content
	// (Question.CacheKey), if the store's policy allows serving them.
	// The returned slice and the answers' maps and slices may be shared
	// with other callers: they are read-only. Served answers need not
	// carry a QuestionID; votes are keyed by the asking question.
	Lookup(q *hit.Question) ([]hit.CachedAnswer, bool)
	// Store records a completed question's votes for future lookups.
	Store(q *hit.Question, answers []hit.CachedAnswer)
}

// ObservedStats is the persistent observed-statistics store consulted
// by the optimizer at plan time and fed by the executor after every
// run: per-task observed selectivities, POSSIBLY pass fractions, sort
// group sizes, and worker latency/agreement (the obstats.Kind*
// constants name the kinds). internal/obstats implements it; the field
// is nil for engines that neither record nor use history.
type ObservedStats interface {
	// Observe records one observed statistic with the given weight
	// (typically the tuple or pair count it was measured over).
	Observe(task, kind string, value, weight float64)
	// Estimate returns the weighted mean and total weight for one
	// (task, kind), or ok=false when nothing was ever observed.
	Estimate(task, kind string) (value, weight float64, ok bool)
}

// Engine bundles the services every operator needs (paper Fig. 1: query
// optimizer → executor → task manager → HIT compiler → crowd).
type Engine struct {
	Catalog *relation.Catalog
	Library *Library
	Market  crowd.Marketplace
	Ledger  *cost.Ledger
	Options Options
	// Journal, when non-nil, receives breaker checkpoints during
	// execution (durable runs; see internal/wal and qurk.WithJournal).
	Journal JournalSink
	// Answers, when non-nil, is the answer store (the paper's task
	// cache): every crowd operator's poster answers a question whose
	// content already has servable votes from the store instead of
	// posting it, and feeds it every freshly collected question. It is
	// typically shared by many engines in a qurkd process. A nil store
	// reuses nothing: every question posts, even within one run.
	Answers AnswerStore
	// ObStats, when non-nil, is the shared observed-statistics store:
	// the optimizer seeds selectivity / pass-fraction / group-size
	// priors from it at plan time, and the executor feeds it what the
	// run actually observed. Like Answers it is typically shared by
	// many engines in a qurkd process. It deliberately lives on the
	// Engine rather than in Options: Options is hashed into the durable
	// journal fingerprint, and attaching history must not change what
	// journal a run can resume.
	ObStats ObservedStats
}

// NewEngine builds an engine with a fresh catalog, library and ledger.
func NewEngine(market crowd.Marketplace, opts Options) *Engine {
	opts.fillDefaults()
	return &Engine{
		Catalog: relation.NewCatalog(),
		Library: NewLibrary(),
		Market:  market,
		Ledger:  cost.NewLedger(),
		Options: opts,
	}
}

// Combiner instantiates the configured combiner.
func (e *Engine) Combiner() (combine.Combiner, error) {
	return combine.Lookup(e.Options.Combiner)
}

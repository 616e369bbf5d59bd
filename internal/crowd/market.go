package crowd

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"qurk/internal/hit"
)

// Marketplace is the abstraction Qurk's operators post work to. The
// simulator below implements it; a live MTurk client would too (the
// paper's "declarative interface enables platform independence", §1).
//
// Concurrency contract: implementations must be safe for concurrent
// calls from multiple operator goroutines — the executor overlaps
// independent phases (extract-left ∥ extract-right, OR-filter branches,
// adaptive shards) by posting groups in parallel. A conforming
// implementation must produce results for a group that depend only on
// the group's content (and, for the simulator, the configured seed),
// never on the interleaving of concurrent Run calls.
//
// An implementation writes its posting logic once and derives the other
// method with a one-line adapter: a backend that blocks by nature posts
// in Run and returns GoRun(Run) from RunAsync; a wrapper that must
// commit something before the call returns (a journal intent, a budget
// charge, an admission) posts in RunAsync, and its Run receives from
// RunAsync.
type Marketplace interface {
	// Run posts one HIT group and blocks until every assignment
	// completes, is refused, or expires (accepted by a worker but never
	// submitted within the assignment deadline).
	Run(group *hit.Group) (*RunResult, error)
	// RunAsync posts one HIT group without blocking. The returned
	// channel is buffered and receives exactly one outcome when the
	// group completes.
	RunAsync(group *hit.Group) <-chan Async
}

// WorkerModerator is an optional Marketplace extension for backends
// that can moderate individual workers: ban poor performers from
// future tasks (the paper's §6 suggestion to act on the QA algorithm's
// output), lift bans, and pay bonuses. The simulator moderates its
// synthetic population; the live MTurk client maps these calls to
// CreateWorkerBlock / DeleteWorkerBlock / SendBonus.
type WorkerModerator interface {
	// BlockWorker bans workerID from future task pickup; reason is
	// recorded with the marketplace (MTurk shows it to the worker).
	BlockWorker(workerID, reason string) error
	// UnblockWorker lifts a previous block on workerID.
	UnblockWorker(workerID, reason string) error
	// BonusWorker grants workerID a bonus of cents against one of
	// their submitted assignments.
	BonusWorker(workerID, assignmentID string, cents int, reason string) error
}

// Async is the outcome RunAsync delivers.
type Async struct {
	// Result is the completed group's outcome when Err is nil.
	Result *RunResult
	// Err is the posting failure, if any.
	Err error
}

// Await blocks on an async outcome or on context cancellation,
// whichever comes first. The posted HITs are not recalled on
// cancellation — crowd work, once posted, is spent — but the caller
// stops waiting for it.
func Await(ctx context.Context, ch <-chan Async) (*RunResult, error) {
	select {
	case a := <-ch:
		return a.Result, a.Err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// GoRun adapts a blocking run function into the RunAsync shape: the
// RunAsync of a Marketplace whose posting body is its Run.
func GoRun(run func() (*RunResult, error)) <-chan Async {
	ch := make(chan Async, 1)
	go func() {
		r, err := run()
		ch <- Async{Result: r, Err: err}
	}()
	return ch
}

// RunResult is the outcome of posting a HIT group.
type RunResult struct {
	// Assignments holds every completed assignment with submit times.
	Assignments []hit.Assignment
	// Incomplete lists HIT IDs workers refused to complete (batch too
	// large for the price — paper §4.2.2's group-size-20 experiment and
	// §6 "we found batch sizes at which workers refused to perform
	// tasks").
	Incomplete []string
	// Expired maps HIT IDs to how many of their assignments were
	// accepted by a worker but never submitted before the assignment
	// deadline. The HIT's completed assignments (if any) are still in
	// Assignments; callers that want the missing votes re-post the HIT's
	// questions (the streaming executor's expiry retry policy does this
	// with lineage-derived HIT IDs, bounded by Options.ExpiredRetries).
	Expired map[string]int
	// MakespanHours is the time the last assignment completed, or — when
	// any assignment expired — the time the expiry was detected, since a
	// caller cannot know an assignment is never coming until its
	// deadline passes.
	MakespanHours float64
	// TotalAssignments counts completed assignments.
	TotalAssignments int
}

// AddExpired records n expired assignments against a HIT; a
// marketplace's posting body calls it as it finds each expiry.
func (out *RunResult) AddExpired(hitID string, n int) {
	if n <= 0 {
		return
	}
	if out.Expired == nil {
		out.Expired = map[string]int{}
	}
	out.Expired[hitID] += n
}

// Config parametrizes the simulated marketplace.
type Config struct {
	// Seed makes the simulation deterministic.
	Seed int64
	// Population configures the worker pool.
	Population PopulationConfig
	// AssignmentsPerHour is the base marketplace throughput for
	// effortless HITs (default 2500; calibrated so a 30×30 unbatched
	// celebrity join lands in the paper's ~1.5–2 hour range).
	AssignmentsPerHour float64
	// TimeOfDayFactor scales throughput (the paper ran morning and
	// evening trials and saw variance; default 1).
	TimeOfDayFactor float64
	// SlowdownEffort is the per-HIT effort (in unit-equivalents) at
	// which pickup starts to slow; beyond it the rate falls
	// quadratically (default 8).
	SlowdownEffort float64
	// RefusalEffort is the effort beyond which workers refuse the HIT
	// entirely at this price (default 30; a group-size-20 comparison
	// exceeds it, reproducing the paper's stalled experiment).
	RefusalEffort float64
	// StragglerFrac is the tail fraction of assignments that complete
	// slowly (default 0.05).
	StragglerFrac float64
	// StragglerSlowdown stretches the tail (default 20; makes the last
	// 5% of tasks consume roughly half the wall clock, as in Fig. 4).
	StragglerSlowdown float64
	// SpamBatchAffinityPerUnit grows spammer pickup weight per extra
	// unit of batched work (default 0.35).
	SpamBatchAffinityPerUnit float64
	// CombinedConfusionFactor scales feature confusion in combined
	// interfaces (default 0.55).
	CombinedConfusionFactor float64
	// RatingNoise is per-rating Gaussian noise in Likert units
	// (default 0.55).
	RatingNoise float64
	// RateExtraSigma is additional perceptual noise (in units of the
	// score range) that applies only to rating questions: judging an
	// item in isolation is harder than comparing items side by side,
	// which is why the paper's Rate reaches τ ≈ 0.78 on squares whose
	// Compare is perfect (§4.2.2). Default 0.28.
	RateExtraSigma float64
	// UnknownShare is the fraction of feature errors reported as
	// UNKNOWN when allowed (default 0.15).
	UnknownShare float64
	// GroupRampAssignments softens throughput for small groups: tiny
	// groups are less attractive to Turkers (default 20).
	GroupRampAssignments float64
	// AbandonProb is the per-assignment probability that a sampled
	// worker accepts the HIT but never submits it, so the assignment
	// expires at AssignmentDurationHours (default 0 — no abandonment,
	// preserving pre-timeout-policy behavior bit for bit). Abandonment
	// is drawn from the HIT's private RNG stream, so which assignments
	// expire depends only on (seed, groupID, hitID) — never on chunking
	// or scheduling.
	AbandonProb float64
	// AssignmentDurationHours is the deadline an accepted assignment
	// must be submitted by; abandoned assignments are detected as
	// expired at this time after the group is posted (default 2).
	// Expiry therefore dominates a group's makespan, mirroring the real
	// marketplace, where an abandoned assignment blocks completion until
	// its AssignmentDurationInSeconds elapses.
	AssignmentDurationHours float64
	// Parallelism bounds the simulation worker pool per Run (default
	// GOMAXPROCS). Results are bit-identical at any setting; 1 forces
	// fully sequential simulation.
	Parallelism int
	// TrackPosts keeps a log of every HIT admitted to the market (see
	// PostedHITs) and deduplicates re-posts of an already-admitted HIT,
	// modeling the real marketplace's idempotent re-attach: a resumed
	// run that re-posts a group whose HITs are already live creates
	// nothing new. Off by default (zero overhead); crash-recovery tests
	// turn it on to assert zero duplicate posting.
	TrackPosts bool
}

// DefaultConfig returns the calibrated defaults described above.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:                     seed,
		AssignmentsPerHour:       2500,
		TimeOfDayFactor:          1,
		SlowdownEffort:           8,
		RefusalEffort:            30,
		StragglerFrac:            0.05,
		StragglerSlowdown:        20,
		SpamBatchAffinityPerUnit: 0.35,
		CombinedConfusionFactor:  0.55,
		RatingNoise:              0.55,
		RateExtraSigma:           0.28,
		UnknownShare:             0.15,
		GroupRampAssignments:     20,
		AssignmentDurationHours:  2,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig(c.Seed)
	if c.AssignmentsPerHour == 0 {
		c.AssignmentsPerHour = d.AssignmentsPerHour
	}
	if c.TimeOfDayFactor == 0 {
		c.TimeOfDayFactor = d.TimeOfDayFactor
	}
	if c.SlowdownEffort == 0 {
		c.SlowdownEffort = d.SlowdownEffort
	}
	if c.RefusalEffort == 0 {
		c.RefusalEffort = d.RefusalEffort
	}
	if c.StragglerFrac == 0 {
		c.StragglerFrac = d.StragglerFrac
	}
	if c.StragglerSlowdown == 0 {
		c.StragglerSlowdown = d.StragglerSlowdown
	}
	if c.SpamBatchAffinityPerUnit == 0 {
		c.SpamBatchAffinityPerUnit = d.SpamBatchAffinityPerUnit
	}
	if c.CombinedConfusionFactor == 0 {
		c.CombinedConfusionFactor = d.CombinedConfusionFactor
	}
	if c.RatingNoise == 0 {
		c.RatingNoise = d.RatingNoise
	}
	if c.RateExtraSigma == 0 {
		c.RateExtraSigma = d.RateExtraSigma
	}
	if c.UnknownShare == 0 {
		c.UnknownShare = d.UnknownShare
	}
	if c.GroupRampAssignments == 0 {
		c.GroupRampAssignments = d.GroupRampAssignments
	}
	if c.AssignmentDurationHours == 0 {
		c.AssignmentDurationHours = d.AssignmentDurationHours
	}
}

// SimMarket is the simulated marketplace. Run and RunAsync are safe for
// concurrent use: every HIT draws its answers and latencies from a
// private RNG seeded by hash(Seed, groupID, hitID), so results are
// bit-identical for a fixed seed regardless of core count, scheduling
// order, or how many groups are in flight at once.
type SimMarket struct {
	cfg    Config
	oracle Oracle
	pop    *Population
	// sem bounds concurrent HIT simulations across ALL in-flight Run
	// calls on this market, so overlapped operator phases cannot
	// oversubscribe the CPU to phases × GOMAXPROCS goroutines.
	sem chan struct{}

	// Post admission state (Config.TrackPosts / InjectCrashAfter),
	// guarded by its own mutex so the hot simulation path never
	// contends on it.
	postMu     sync.Mutex
	posted     map[string]bool
	postLog    []string
	crashArmed bool
	crashLeft  int
	crashed    bool

	// Worker-moderation state (WorkerModerator), guarded separately
	// from the simulation hot path.
	modMu   sync.Mutex
	bonuses map[string]int // workerID → total bonus cents granted
}

// ErrInjectedCrash is the failure a SimMarket armed with
// InjectCrashAfter returns from the posting path; crash-recovery tests
// treat it as the process dying mid-post.
var ErrInjectedCrash = errors.New("crowd: injected crash")

// NewSimMarket builds a marketplace over the oracle's ground truth.
func NewSimMarket(cfg Config, oracle Oracle) *SimMarket {
	cfg.fillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	return &SimMarket{
		cfg:    cfg,
		oracle: oracle,
		pop:    NewPopulation(cfg.Population, rng),
		sem:    make(chan struct{}, par),
	}
}

// InjectCrashAfter arms a one-shot fault: the market admits n more new
// HITs and then fails the posting call that tries to admit the next
// one with ErrInjectedCrash — and keeps failing every posting call
// after that, like a dead process. HITs of the failing group admitted
// before the trip stay admitted (a torn post, exactly what a crash
// between HIT creations leaves behind). A negative n disarms the fault
// so a "restarted" run can proceed. Re-posts of already-admitted HITs
// never count against n (they are re-attaches, not new work).
func (m *SimMarket) InjectCrashAfter(n int) {
	m.postMu.Lock()
	defer m.postMu.Unlock()
	if n < 0 {
		m.crashArmed = false
		m.crashed = false
		return
	}
	m.crashArmed = true
	m.crashLeft = n
	m.crashed = false
}

// PostedHITs returns the admission log: one "groupID/hitID" entry per
// distinct HIT ever admitted, in admission order. Requires
// Config.TrackPosts; crash-recovery tests compare this log between an
// interrupted-and-resumed run and an uninterrupted one to prove zero
// duplicate posting.
func (m *SimMarket) PostedHITs() []string {
	m.postMu.Lock()
	defer m.postMu.Unlock()
	out := make([]string, len(m.postLog))
	copy(out, m.postLog)
	return out
}

// admit runs the posting gate: it logs and deduplicates new HITs when
// TrackPosts is on and trips the armed crash fault on the (n+1)th new
// HIT. Returns the error the posting call should fail with, or nil.
func (m *SimMarket) admit(group *hit.Group) error {
	if !m.cfg.TrackPosts && !m.crashArmedSnapshot() {
		return nil
	}
	m.postMu.Lock()
	defer m.postMu.Unlock()
	for _, h := range group.HITs {
		key := group.ID + "/" + h.ID
		if m.posted[key] {
			continue // already live: re-attach, never a new post
		}
		if m.crashed || (m.crashArmed && m.crashLeft == 0) {
			m.crashed = true
			return ErrInjectedCrash
		}
		if m.crashArmed {
			m.crashLeft--
		}
		if m.cfg.TrackPosts {
			if m.posted == nil {
				m.posted = map[string]bool{}
			}
			m.posted[key] = true
			m.postLog = append(m.postLog, key)
		}
	}
	return nil
}

// crashArmedSnapshot reads the fault flag under the lock so admit can
// fast-path out when neither tracking nor fault injection is on.
func (m *SimMarket) crashArmedSnapshot() bool {
	m.postMu.Lock()
	defer m.postMu.Unlock()
	return m.crashArmed || m.crashed
}

// Population exposes the worker pool (experiments regress accuracy
// against per-worker task counts, §3.3.3).
func (m *SimMarket) Population() *Population { return m.pop }

// BlockWorker implements WorkerModerator by banning the worker from
// future task pickup in the simulated population.
func (m *SimMarket) BlockWorker(workerID, reason string) error {
	m.pop.Ban(workerID)
	return nil
}

// UnblockWorker implements WorkerModerator by restoring the worker to
// the simulated pickup pool.
func (m *SimMarket) UnblockWorker(workerID, reason string) error {
	m.pop.Unban(workerID)
	return nil
}

// BonusWorker implements WorkerModerator by recording a bonus grant
// for the worker. The simulator tracks totals (see BonusCents) so
// experiments can audit incentive spend; it does not change worker
// behavior.
func (m *SimMarket) BonusWorker(workerID, assignmentID string, cents int, reason string) error {
	if cents <= 0 {
		return fmt.Errorf("crowd: bonus must be positive, got %d cents", cents)
	}
	m.modMu.Lock()
	defer m.modMu.Unlock()
	if m.bonuses == nil {
		m.bonuses = map[string]int{}
	}
	m.bonuses[workerID] += cents
	return nil
}

// BonusCents reports the total bonus cents granted to a worker via
// BonusWorker.
func (m *SimMarket) BonusCents(workerID string) int {
	m.modMu.Lock()
	defer m.modMu.Unlock()
	return m.bonuses[workerID]
}

// Oracle returns the ground-truth oracle (experiments score results
// against it).
func (m *SimMarket) Oracle() Oracle { return m.oracle }

// effort estimates how much work one HIT demands of a worker, in
// single-judgment equivalents. Comparison groups cost S·log₂(S)/2 —
// ranking needs more than S looks — and grid cells are cheaper than
// standalone pair judgments (clicking matches in context).
func effort(h *hit.HIT) float64 {
	var e float64
	for i := range h.Questions {
		q := &h.Questions[i]
		switch q.Kind {
		case hit.CompareQ:
			s := float64(len(q.Items))
			e += s * math.Log2(s) / 2
		case hit.JoinGridQ:
			e += 0.35 * float64(q.UnitCount())
		case hit.GenerativeQ:
			e += 0.5 + 0.5*float64(len(q.Fields))
		default:
			e += 1
		}
	}
	return e
}

// seedSalt decorrelates the per-HIT streams from the population
// stream; the value is arbitrary (it was fixed once, when the
// simulator's statistical calibration was validated against the
// paper's bands).
const seedSalt = 0

// hitSeed derives the per-HIT RNG seed. Mixing through a splitmix64
// finalizer decorrelates nearby (group, hit) pairs so adjacent HITs do
// not share low-bit structure.
func hitSeed(seed int64, groupID, hitID string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, groupID)
	h.Write([]byte{0xff, seedSalt})
	io.WriteString(h, hitID)
	return mix64(h.Sum64() ^ uint64(seed)*0x9e3779b97f4a7c15)
}

// mix64 is the splitmix64 finalizer, shared by hitSeed and the
// splitmix source so the two stay in lockstep.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// splitmix is a rand.Source64 over the splitmix64 generator. Seeding
// costs one assignment — math/rand's default source burns ~10µs
// initializing a 607-word table, which dominated the per-HIT hot path
// when every HIT gets a private stream.
type splitmix struct{ state uint64 }

// Uint64 implements rand.Source64.
func (s *splitmix) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix64(s.state)
}

// Int63 implements rand.Source.
func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source.
func (s *splitmix) Seed(seed int64) { s.state = uint64(seed) }

// hitRNG returns the HIT's private RNG stream.
func hitRNG(seed int64, groupID, hitID string) *rand.Rand {
	return rand.New(&splitmix{state: hitSeed(seed, groupID, hitID)})
}

// posting is one accepted HIT with its precomputed simulation inputs.
type posting struct {
	h        *hit.HIT
	slowdown float64
	// idBase is the serial of this HIT's first assignment, fixed ahead
	// of simulation (from the same min(assignments, available) rule
	// SampleDistinct applies) so assignment IDs are stable under
	// parallelism.
	idBase int
}

// Run implements Marketplace: HITs simulate concurrently on a pool
// bounded by Config.Parallelism (default GOMAXPROCS).
func (m *SimMarket) Run(group *hit.Group) (*RunResult, error) {
	if group == nil || len(group.HITs) == 0 {
		return &RunResult{}, nil
	}
	if err := m.admit(group); err != nil {
		return nil, err
	}
	res := &RunResult{}

	// Pass 1 (sequential, cheap): refusal check, slowdowns, and the
	// assignment-serial layout that keeps IDs stable under parallelism.
	// Serials advance by the availability-capped per-HIT count (the
	// exact number SampleDistinct will return); throughput uses the
	// requested count, matching the original calibration.
	avail := m.pop.AvailableCount()
	var postings []posting
	completable := 0
	requested := 0
	for _, h := range group.HITs {
		if err := h.Validate(); err != nil {
			return nil, fmt.Errorf("crowd: %w", err)
		}
		e := effort(h)
		if e > m.cfg.RefusalEffort {
			res.Incomplete = append(res.Incomplete, h.ID)
			continue
		}
		slow := 1.0
		if e > m.cfg.SlowdownEffort {
			r := m.cfg.SlowdownEffort / e
			slow = r * r
		}
		workers := h.Assignments
		if workers > avail {
			workers = avail
		}
		postings = append(postings, posting{h: h, slowdown: slow, idBase: completable})
		completable += workers
		requested += h.Assignments
	}
	if requested == 0 || completable == 0 {
		return res, nil
	}

	// Group throughput: base rate scaled by time of day and by group
	// attractiveness (small groups draw fewer Turkers, §2.6).
	a := float64(requested)
	ramp := a / (a + m.cfg.GroupRampAssignments)
	rate := m.cfg.AssignmentsPerHour * m.cfg.TimeOfDayFactor * ramp
	baseMakespan := a / rate

	rcfg := respondConfig{
		ratingNoise:             m.cfg.RatingNoise,
		rateExtraSigma:          m.cfg.RateExtraSigma,
		combinedConfusionFactor: m.cfg.CombinedConfusionFactor,
		unknownShare:            m.cfg.UnknownShare,
	}

	// Pass 2 (parallel): each HIT simulates on its own RNG stream.
	// The market-wide semaphore bounds total concurrent simulations
	// even when several Run calls are in flight at once.
	workers := cap(m.sem)
	if workers > len(postings) {
		workers = len(postings)
	}
	perHIT := make([][]hit.Assignment, len(postings))
	perExpired := make([]int, len(postings))
	if workers <= 1 {
		for i := range postings {
			m.sem <- struct{}{}
			perHIT[i], perExpired[i] = m.simulateHIT(group.ID, &postings[i], baseMakespan, rcfg)
			<-m.sem
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(postings) {
						return
					}
					m.sem <- struct{}{}
					perHIT[i], perExpired[i] = m.simulateHIT(group.ID, &postings[i], baseMakespan, rcfg)
					<-m.sem
				}
			}()
		}
		wg.Wait()
	}

	// Assemble in posting order; max and concatenation are both
	// independent of completion order.
	for i, as := range perHIT {
		for j := range as {
			if as[j].SubmitHours > res.MakespanHours {
				res.MakespanHours = as[j].SubmitHours
			}
		}
		res.Assignments = append(res.Assignments, as...)
		res.AddExpired(postings[i].h.ID, perExpired[i])
	}
	if len(res.Expired) > 0 && res.MakespanHours < m.cfg.AssignmentDurationHours {
		// Abandoned assignments are only known to be gone once the
		// assignment deadline passes.
		res.MakespanHours = m.cfg.AssignmentDurationHours
	}
	res.TotalAssignments = len(res.Assignments)
	hit.SortAssignments(res.Assignments)
	return res, nil
}

// RunAsync implements Marketplace.
func (m *SimMarket) RunAsync(group *hit.Group) <-chan Async {
	return GoRun(func() (*RunResult, error) { return m.Run(group) })
}

// simulateHIT generates one HIT's assignments: worker pickup, answers,
// and completion times, all drawn from the HIT's private RNG stream. It
// also reports how many sampled workers abandoned the HIT (accepted it
// but never submitted — Config.AbandonProb), whose assignments expire
// instead of completing.
func (m *SimMarket) simulateHIT(groupID string, p *posting, baseMakespan float64, rcfg respondConfig) ([]hit.Assignment, int) {
	rng := hitRNG(m.cfg.Seed, groupID, p.h.ID)
	units := p.h.Units()
	affinity := 1 + m.cfg.SpamBatchAffinityPerUnit*float64(units-1)
	if affinity < 1 {
		affinity = 1
	}
	workers := m.pop.SampleDistinct(p.h.Assignments, affinity, rng)
	out := make([]hit.Assignment, 0, len(workers))
	expired := 0
	for k, w := range workers {
		// The abandonment draw happens only when the knob is on, so an
		// AbandonProb of zero leaves the legacy RNG stream — and every
		// calibrated simulation result — untouched.
		if m.cfg.AbandonProb > 0 && rng.Float64() < m.cfg.AbandonProb {
			expired++
			continue
		}
		asn := hit.Assignment{
			ID:       hit.MintID(groupID, "a", p.idBase+k+1, 6),
			HITID:    p.h.ID,
			WorkerID: w.ID,
			Answers:  make([]hit.Answer, 0, len(p.h.Questions)),
		}
		for qi := range p.h.Questions {
			q := &p.h.Questions[qi]
			asn.Answers = append(asn.Answers, respond(w, q, m.oracle, rcfg, units, rng))
		}
		// One add per assignment (as documented on the field), not per
		// question — popular Zipfian workers are sampled by many HITs
		// at once, and per-question RMWs ping-pong their cache line
		// across the pool.
		atomic.AddInt64(&w.TasksDone, 1)
		// Completion time: position u on the group's completion curve,
		// stretched through the straggler tail, divided by this HIT's
		// slowdown.
		u := rng.Float64()
		pos := u
		if u > 1-m.cfg.StragglerFrac {
			pos = (1 - m.cfg.StragglerFrac) + (u-(1-m.cfg.StragglerFrac))*m.cfg.StragglerSlowdown
		}
		t := baseMakespan * pos / p.slowdown
		// Small per-assignment jitter.
		t *= 1 + 0.1*rng.Float64()
		asn.SubmitHours = t
		out = append(out, asn)
	}
	return out, expired
}

package mturk

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"qurk/internal/core"
	"qurk/internal/crowd"
	"qurk/internal/hit"
)

// Endpoint URLs the client targets; any URL speaking the same protocol
// (including FakeServer.URL()) works.
const (
	// SandboxEndpoint is the MTurk requester sandbox — free, safe, and
	// the default: posting real money requires opting into
	// ProductionEndpoint explicitly.
	SandboxEndpoint = "https://mturk-requester-sandbox.us-east-1.amazonaws.com"
	// ProductionEndpoint is the live marketplace. HITs posted here cost
	// real dollars and reach real workers.
	ProductionEndpoint = "https://mturk-requester.us-east-1.amazonaws.com"
)

// Config parametrizes the live client. The zero value targets the
// sandbox with credentials from the standard AWS environment variables
// and the paper's HIT shape (short assignments, auto-approval).
type Config struct {
	// Endpoint is the REST endpoint base URL (default SandboxEndpoint).
	Endpoint string
	// Region signs requests (default us-east-1).
	Region string
	// AccessKey / SecretKey / SessionToken are the AWS credentials;
	// empty values fall back to AWS_ACCESS_KEY_ID /
	// AWS_SECRET_ACCESS_KEY / AWS_SESSION_TOKEN.
	AccessKey, SecretKey, SessionToken string
	// HTTPClient issues the requests (default http.DefaultClient with a
	// 30s timeout).
	HTTPClient *http.Client
	// Clock drives polling and signing time (default wall clock; tests
	// inject FakeClock).
	Clock Clock
	// PollInterval is the wait between ListAssignmentsForHIT sweeps
	// (default 15s).
	PollInterval time.Duration
	// MaxPollInterval caps the capped exponential backoff the poll
	// loop applies while sweeps make no progress (no new assignments,
	// no completions): each idle sweep doubles the wait from
	// PollInterval up to this cap, and any progress resets it —
	// cutting request volume on long-deadline HITs without delaying
	// active ones (default 8× PollInterval).
	MaxPollInterval time.Duration
	// AssignmentDuration is each accepted assignment's submission
	// deadline (default 10m), counted from the worker's accept time.
	// Once the HIT has been out this long the client starts checking
	// GetHIT's in-progress count: assignments still missing with no
	// worker inside an accept window are reported in
	// crowd.RunResult.Expired — the marketplace half of the engine's
	// timeout policy (Options.ExpiredRetries re-posts them). Workers
	// who picked up late keep their full window, bounded by
	// Lifetime + AssignmentDuration.
	AssignmentDuration time.Duration
	// Lifetime is how long a HIT stays visible (default 1h).
	Lifetime time.Duration
	// SkipApprove leaves submitted assignments unapproved (default
	// false: approve on collection, so workers are paid promptly).
	SkipApprove bool
	// Title, Description, and Keywords fill HIT metadata; the group ID
	// is appended to Title so one engine group forms one MTurk HIT
	// group (§2.6: Turkers gravitate to groups with many HITs).
	Title, Description, Keywords string
	// Render overrides the worker-facing HTML per HIT (e.g. the
	// hit.Compiler's paper-faithful interfaces); nil uses a plain
	// generic form. The JSON manifest is appended either way.
	Render func(*hit.HIT) (string, error)
}

func (c *Config) fillDefaults() {
	if c.Endpoint == "" {
		c.Endpoint = SandboxEndpoint
	}
	if c.Region == "" {
		c.Region = "us-east-1"
	}
	if c.AccessKey == "" {
		c.AccessKey = os.Getenv("AWS_ACCESS_KEY_ID")
	}
	if c.SecretKey == "" {
		c.SecretKey = os.Getenv("AWS_SECRET_ACCESS_KEY")
	}
	if c.SessionToken == "" {
		c.SessionToken = os.Getenv("AWS_SESSION_TOKEN")
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 15 * time.Second
	}
	if c.MaxPollInterval <= 0 {
		c.MaxPollInterval = 8 * c.PollInterval
	}
	if c.MaxPollInterval < c.PollInterval {
		c.MaxPollInterval = c.PollInterval
	}
	if c.AssignmentDuration <= 0 {
		c.AssignmentDuration = 10 * time.Minute
	}
	if c.Lifetime <= 0 {
		c.Lifetime = time.Hour
	}
	if c.Title == "" {
		c.Title = "Answer a short batch of questions"
	}
	if c.Description == "" {
		c.Description = "Crowd-powered query operator tasks (Qurk)"
	}
	if c.Keywords == "" {
		c.Keywords = "survey, quick, image, question"
	}
}

// FromOptions builds a Config from the engine-level MTurk options, so
// deployments configure the backend next to every other execution knob.
func FromOptions(o core.MTurkOptions) Config {
	return Config{
		Endpoint:           o.Endpoint,
		Region:             o.Region,
		AccessKey:          o.AccessKey,
		SecretKey:          o.SecretKey,
		SessionToken:       o.SessionToken,
		PollInterval:       time.Duration(o.PollIntervalSeconds * float64(time.Second)),
		MaxPollInterval:    time.Duration(o.MaxPollIntervalSeconds * float64(time.Second)),
		AssignmentDuration: time.Duration(o.AssignmentDurationSeconds) * time.Second,
		Lifetime:           time.Duration(o.LifetimeSeconds) * time.Second,
		SkipApprove:        o.SkipApprove,
	}
}

// Client posts HIT groups to a live MTurk-compatible endpoint. It
// implements crowd.Marketplace and is safe for concurrent Run/RunAsync
// calls — the streaming executor posts overlapping chunks from several
// operator goroutines, and each call keeps all its state on its own
// stack.
type Client struct {
	cfg   Config
	creds credentials
	// backoffRNG draws retry jitter (api.go's backoff); seeded
	// deterministically from the credentials so offline fake-clock runs
	// stay reproducible. Guarded by backoffMu — operators retry
	// concurrently and rand.Rand is not thread-safe.
	backoffMu  sync.Mutex
	backoffRNG *rand.Rand
}

// New builds a client; it fails fast when no credentials are resolvable
// rather than posting unsigned requests.
func New(cfg Config) (*Client, error) {
	cfg.fillDefaults()
	if cfg.AccessKey == "" || cfg.SecretKey == "" {
		return nil, fmt.Errorf("mturk: no credentials: set Config.AccessKey/SecretKey or AWS_ACCESS_KEY_ID/AWS_SECRET_ACCESS_KEY")
	}
	seed := fnv.New64a()
	seed.Write([]byte(cfg.AccessKey))
	seed.Write([]byte{0})
	seed.Write([]byte(cfg.Endpoint))
	return &Client{
		cfg:        cfg,
		creds:      credentials{accessKey: cfg.AccessKey, secretKey: cfg.SecretKey, sessionToken: cfg.SessionToken},
		backoffRNG: rand.New(rand.NewSource(int64(seed.Sum64()))),
	}, nil
}

// Endpoint reports the endpoint the client posts to.
func (c *Client) Endpoint() string { return c.cfg.Endpoint }

// RunAsync implements crowd.Marketplace.
func (c *Client) RunAsync(group *hit.Group) <-chan crowd.Async {
	return crowd.GoRun(func() (*crowd.RunResult, error) { return c.Run(group) })
}

// pendingHIT tracks one posted HIT through the poll loop.
type pendingHIT struct {
	h        *hit.HIT
	mturkID  string
	postedAt time.Time
	seen     map[string]bool
	got      []hit.Assignment
	done     bool
}

// Run implements crowd.Marketplace: it posts every HIT in the group and
// polls assignments back until each HIT completes or expires. The
// returned result's clock — SubmitHours and MakespanHours — is hours
// since the group was posted, the same frame the simulator reports.
func (c *Client) Run(group *hit.Group) (*crowd.RunResult, error) {
	res := &crowd.RunResult{}
	if group == nil || len(group.HITs) == 0 {
		return res, nil
	}
	start := c.cfg.Clock.Now()
	pending := make([]*pendingHIT, 0, len(group.HITs))
	for _, h := range group.HITs {
		if err := h.Validate(); err != nil {
			return nil, fmt.Errorf("mturk: %w", err)
		}
		mturkID, err := c.createHIT(group, h)
		if err != nil {
			return nil, err
		}
		pending = append(pending, &pendingHIT{h: h, mturkID: mturkID, postedAt: c.cfg.Clock.Now(), seen: map[string]bool{}})
	}

	remaining := len(pending)
	wait := c.cfg.PollInterval
	for remaining > 0 {
		progress := false
		for _, p := range pending {
			if p.done {
				continue
			}
			got := len(p.got)
			if err := c.pollHIT(start, p); err != nil {
				return nil, err
			}
			if len(p.got) > got {
				progress = true
			}
			if len(p.got) >= p.h.Assignments {
				p.done = true
			} else if c.cfg.Clock.Now().Sub(p.postedAt) >= c.cfg.AssignmentDuration {
				expired, err := c.checkExpired(p)
				if err != nil {
					return nil, err
				}
				if expired > 0 {
					res.AddExpired(p.h.ID, expired)
					detect := c.cfg.Clock.Now().Sub(start).Hours()
					if detect > res.MakespanHours {
						res.MakespanHours = detect
					}
					c.expireHIT(p.mturkID)
					p.done = true
				}
			}
			if p.done {
				progress = true
				remaining--
			}
		}
		if remaining > 0 {
			// Capped exponential backoff while nothing moves: long
			// deadlines otherwise cost O(HITs × lifetime/interval)
			// ListAssignmentsForHIT requests. Any progress resets the
			// cadence so active HITs keep the snappy interval.
			if progress {
				wait = c.cfg.PollInterval
			} else if wait < c.cfg.MaxPollInterval {
				wait *= 2
				if wait > c.cfg.MaxPollInterval {
					wait = c.cfg.MaxPollInterval
				}
			}
			// Never sleep past a pending HIT's assignment deadline by
			// more than the base interval: expiry detection (and the
			// re-post policy it feeds) must stay as prompt as it was
			// before backoff existed.
			sleep := wait
			now := c.cfg.Clock.Now()
			for _, p := range pending {
				if p.done {
					continue
				}
				if until := p.postedAt.Add(c.cfg.AssignmentDuration).Sub(now); until > 0 && until < sleep {
					sleep = until
				}
			}
			if sleep < c.cfg.PollInterval {
				sleep = c.cfg.PollInterval
			}
			c.cfg.Clock.Sleep(sleep)
		}
	}

	for _, p := range pending {
		for i := range p.got {
			if p.got[i].SubmitHours > res.MakespanHours {
				res.MakespanHours = p.got[i].SubmitHours
			}
		}
		res.Assignments = append(res.Assignments, p.got...)
	}
	res.TotalAssignments = len(res.Assignments)
	hit.SortAssignments(res.Assignments)
	return res, nil
}

// createHIT renders and posts one HIT; the engine HIT ID rides along as
// the UniqueRequestToken (idempotent re-posts) and annotation.
func (c *Client) createHIT(group *hit.Group, h *hit.HIT) (string, error) {
	question, err := buildQuestionXML(h, c.cfg.Render)
	if err != nil {
		return "", err
	}
	req := createHITRequest{
		Title:                       fmt.Sprintf("%s [%s]", c.cfg.Title, group.ID),
		Description:                 c.cfg.Description,
		Keywords:                    c.cfg.Keywords,
		Question:                    question,
		Reward:                      fmt.Sprintf("%.2f", h.RewardCents/100),
		MaxAssignments:              h.Assignments,
		AssignmentDurationInSeconds: int64(c.cfg.AssignmentDuration / time.Second),
		LifetimeInSeconds:           int64(c.cfg.Lifetime / time.Second),
		UniqueRequestToken:          h.ID,
		RequesterAnnotation:         h.ID,
	}
	var resp createHITResponse
	if err := c.call(opCreateHIT, &req, &resp); err != nil {
		return "", err
	}
	if resp.HIT.HITId == "" {
		return "", fmt.Errorf("mturk: CreateHIT for %s returned no HITId", h.ID)
	}
	return resp.HIT.HITId, nil
}

// pollHIT sweeps one HIT's newly submitted assignments into p.got,
// approving them unless configured off.
func (c *Client) pollHIT(start time.Time, p *pendingHIT) error {
	next := ""
	for {
		req := listAssignmentsRequest{
			HITId:              p.mturkID,
			AssignmentStatuses: []string{assignmentStatusSubmitted, assignmentStatusApproved},
			MaxResults:         100,
			NextToken:          next,
		}
		var resp listAssignmentsResponse
		if err := c.call(opListAssignmentsForHIT, &req, &resp); err != nil {
			return err
		}
		for _, a := range resp.Assignments {
			if p.seen[a.AssignmentId] {
				continue
			}
			p.seen[a.AssignmentId] = true
			answers, err := decodeAnswers(p.h, a.Answer)
			if err != nil {
				return err
			}
			p.got = append(p.got, hit.Assignment{
				ID:          a.AssignmentId,
				HITID:       p.h.ID,
				WorkerID:    a.WorkerId,
				Answers:     answers,
				SubmitHours: a.SubmitTime.Time().Sub(start).Hours(),
			})
			if !c.cfg.SkipApprove && a.AssignmentStatus == assignmentStatusSubmitted {
				if err := c.call(opApproveAssignment, &approveAssignmentRequest{AssignmentId: a.AssignmentId}, nil); err != nil {
					return err
				}
			}
		}
		if resp.NextToken == "" || len(resp.Assignments) == 0 {
			return nil
		}
		next = resp.NextToken
	}
}

// checkExpired decides, for a HIT past its first assignment deadline,
// how many of its missing assignments are truly gone. Assignment
// durations run from each worker's ACCEPT time, which
// ListAssignmentsForHIT never shows for unsubmitted work — so the
// client asks GetHIT for the in-progress count: while workers hold
// pending assignments (late pickup is normal marketplace behavior) the
// HIT is left to run, up to a hard cap of lifetime + one assignment
// duration, past which no legal submission can exist. Zero pending
// past the deadline means the missing assignments were abandoned,
// returned, or never picked up; either way no votes are coming without
// a re-post, so they are reported expired.
func (c *Client) checkExpired(p *pendingHIT) (int, error) {
	missing := p.h.Assignments - len(p.got)
	hardCap := p.postedAt.Add(c.cfg.Lifetime + c.cfg.AssignmentDuration)
	if c.cfg.Clock.Now().Before(hardCap) {
		var resp getHITResponse
		if err := c.call(opGetHIT, &getHITRequest{HITId: p.mturkID}, &resp); err != nil {
			return 0, err
		}
		if resp.HIT.NumberOfAssignmentsPending > 0 {
			return 0, nil // workers still inside their accept windows
		}
	}
	return missing, nil
}

// expireHIT force-expires a timed-out HIT so no straggler submission
// arrives after the client stopped listening; best effort by design —
// the deadline decision is already made.
func (c *Client) expireHIT(mturkID string) {
	past := c.cfg.Clock.Now().Add(-time.Hour)
	_ = c.call(opUpdateExpirationForHIT, &updateExpirationRequest{HITId: mturkID, ExpireAt: epochOf(past)}, nil)
}

// CheckBalance calls GetAccountBalance — the cheapest end-to-end
// credential/endpoint probe, used by the CLI and the sandbox example
// before posting anything that costs money.
func (c *Client) CheckBalance() (string, error) {
	var resp struct {
		AvailableBalance string `json:"AvailableBalance"`
	}
	if err := c.call(opGetAccountBalance, &struct{}{}, &resp); err != nil {
		return "", err
	}
	return resp.AvailableBalance, nil
}

// SendBonus grants a worker a bonus of cents against one of their
// submitted assignments. The UniqueRequestToken derives from
// (worker, assignment) so a retried call never double-pays.
func (c *Client) SendBonus(workerID, assignmentID string, cents int, reason string) error {
	if cents <= 0 {
		return fmt.Errorf("mturk: bonus must be positive, got %d cents", cents)
	}
	req := sendBonusRequest{
		WorkerId:           workerID,
		AssignmentId:       assignmentID,
		BonusAmount:        fmt.Sprintf("%.2f", float64(cents)/100),
		Reason:             reason,
		UniqueRequestToken: "bonus-" + workerID + "-" + assignmentID,
	}
	return c.call(opSendBonus, &req, nil)
}

// CreateWorkerBlock bans a worker from all of the requester's future
// HITs — the real-marketplace arm of the §6 gold-standard screen's
// ban decision. MTurk shows the reason to the worker.
func (c *Client) CreateWorkerBlock(workerID, reason string) error {
	return c.call(opCreateWorkerBlock, &createWorkerBlockRequest{WorkerId: workerID, Reason: reason}, nil)
}

// DeleteWorkerBlock lifts a previous worker block.
func (c *Client) DeleteWorkerBlock(workerID, reason string) error {
	return c.call(opDeleteWorkerBlock, &deleteWorkerBlockRequest{WorkerId: workerID, Reason: reason}, nil)
}

// BlockWorker implements crowd.WorkerModerator over CreateWorkerBlock.
func (c *Client) BlockWorker(workerID, reason string) error {
	return c.CreateWorkerBlock(workerID, reason)
}

// UnblockWorker implements crowd.WorkerModerator over
// DeleteWorkerBlock.
func (c *Client) UnblockWorker(workerID, reason string) error {
	return c.DeleteWorkerBlock(workerID, reason)
}

// BonusWorker implements crowd.WorkerModerator over SendBonus.
func (c *Client) BonusWorker(workerID, assignmentID string, cents int, reason string) error {
	return c.SendBonus(workerID, assignmentID, cents, reason)
}

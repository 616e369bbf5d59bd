// Package circuit wraps a crowd.Marketplace in a circuit breaker so a
// marketplace outage degrades the query service instead of failing
// queries. A run of consecutive transient failures trips the breaker
// open; while open, posting calls park (the queries stay alive and
// journaled) instead of burning their retry budgets against a dead
// backend. After a cooldown the breaker lets a single probe through
// (half-open); a probe success closes the circuit and releases every
// parked call, a probe failure re-opens it for another cooldown.
//
// The breaker never surfaces transient backend errors to its callers:
// Run retries through the breaker until the backend recovers, so the
// only errors callers see are permanent ones (as classified by
// Config.Permanent — e.g. malformed-request rejections) and ErrClosed
// on shutdown. Per-query deadlines, enforced above the breaker, are
// the escape hatch for callers that must not wait forever.
package circuit

import (
	"errors"
	"sync"
	"time"

	"qurk/internal/crowd"
	"qurk/internal/hit"
)

// ErrClosed is returned to parked and subsequent calls after Close:
// the breaker is shutting down and will never release them.
var ErrClosed = errors.New("circuit: breaker shut down")

// Clock abstracts wall time so tests drive cooldowns deterministically.
// It is structurally compatible with mturk.FakeClock.
type Clock interface {
	// Now reports the current time.
	Now() time.Time
	// Sleep blocks for the given duration.
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// State is the breaker's position: Closed (normal flow), Open (backend
// presumed down, calls park), or HalfOpen (cooldown elapsed, one probe
// in flight decides).
type State int

// Breaker states, in the order a failing backend traverses them.
const (
	Closed State = iota
	Open
	HalfOpen
)

// String names the state for status endpoints and logs.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Config tunes a Breaker. The zero value gets sane defaults.
type Config struct {
	// Threshold is the number of consecutive transient failures that
	// trips the breaker open. Default 5.
	Threshold int
	// Cooldown is how long the breaker stays open before letting a
	// half-open probe through. Default 30s.
	Cooldown time.Duration
	// Clock drives the cooldown timer; nil means wall time.
	Clock Clock
	// Permanent classifies errors that must pass through to the caller
	// instead of being retried — logical request failures the backend
	// will reject forever (e.g. HTTP 4xx other than throttling). A
	// permanent error proves the backend is reachable, so it also
	// resets the failure count. Nil means every error is transient.
	Permanent func(error) bool
}

// Breaker wraps a Marketplace with circuit-breaking park-and-retry
// semantics. It is safe for concurrent use.
type Breaker struct {
	inner crowd.Marketplace
	cfg   Config

	mu       sync.Mutex
	state    State
	failures int           // consecutive transient failures while closed
	probing  bool          // a half-open probe is in flight
	parked   int           // calls waiting for the circuit to close
	shut     bool          // Close was called
	wake     chan struct{} // closed+replaced on every release-worthy transition
	gen      int           // open generation; guards stale cooldown timers
}

// New wraps inner in a breaker with the given config.
func New(inner crowd.Marketplace, cfg Config) *Breaker {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 30 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	return &Breaker{inner: inner, cfg: cfg, wake: make(chan struct{})}
}

// Run posts one group through the breaker. Transient failures are
// absorbed: the call retries (parking while the circuit is open) until
// the group posts successfully, the error is classified permanent, or
// the breaker shuts down.
func (b *Breaker) Run(group *hit.Group) (*crowd.RunResult, error) {
	for {
		if err := b.acquire(); err != nil {
			return nil, err
		}
		res, err := b.inner.Run(group)
		if err == nil {
			b.onSuccess()
			return res, nil
		}
		if b.cfg.Permanent != nil && b.cfg.Permanent(err) {
			// Backend reachable, request rejected: not an outage.
			b.onSuccess()
			return nil, err
		}
		b.onFailure()
	}
}

// RunAsync posts one group without blocking the caller; the breaker's
// park-and-retry happens on the spawned goroutine so a caller (e.g. a
// query's poster, through the service mux) never stalls on an open
// circuit.
func (b *Breaker) RunAsync(group *hit.Group) <-chan crowd.Async {
	return crowd.GoRun(func() (*crowd.RunResult, error) { return b.Run(group) })
}

// acquire blocks until the caller may attempt the backend: immediately
// while closed, as the single probe when half-open, otherwise parked
// until a state change releases it.
func (b *Breaker) acquire() error {
	b.mu.Lock()
	for {
		if b.shut {
			b.mu.Unlock()
			return ErrClosed
		}
		if b.state == Closed {
			b.mu.Unlock()
			return nil
		}
		if b.state == HalfOpen && !b.probing {
			b.probing = true
			b.mu.Unlock()
			return nil
		}
		ch := b.wake
		b.parked++
		b.mu.Unlock()
		<-ch
		b.mu.Lock()
		b.parked--
	}
}

// onSuccess records a reachable backend: it resets the failure count
// and, when the call was the half-open probe, closes the circuit and
// releases every parked call.
func (b *Breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	if b.state == HalfOpen {
		b.state = Closed
		b.probing = false
		b.broadcast()
	}
}

// onFailure records a transient backend failure, tripping the breaker
// open at the threshold (or immediately when the half-open probe
// fails) and arming the cooldown timer.
func (b *Breaker) onFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.failures++
		if b.failures >= b.cfg.Threshold {
			b.trip()
		}
	case HalfOpen:
		b.probing = false
		b.trip()
	case Open:
		// An in-flight call from before another caller tripped the
		// breaker; the trip already armed the cooldown.
	}
}

// trip moves to Open and arms the cooldown timer. Caller holds b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.failures = 0
	b.gen++
	go b.reopen(b.gen)
}

// reopen waits out the cooldown, then moves Open→HalfOpen and wakes
// the parked calls so one becomes the probe. The generation check
// drops timers from superseded open periods.
func (b *Breaker) reopen(gen int) {
	b.cfg.Clock.Sleep(b.cfg.Cooldown)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.shut || b.gen != gen || b.state != Open {
		return
	}
	b.state = HalfOpen
	b.probing = false
	b.broadcast()
}

// broadcast releases every parked call. Caller holds b.mu.
func (b *Breaker) broadcast() {
	close(b.wake)
	b.wake = make(chan struct{})
}

// Close shuts the breaker down: parked calls (and any later ones)
// return ErrClosed instead of waiting forever.
func (b *Breaker) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.shut {
		return
	}
	b.shut = true
	b.broadcast()
}

// State reports the breaker's current position.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Parked reports how many calls are waiting for the circuit to close.
func (b *Breaker) Parked() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.parked
}

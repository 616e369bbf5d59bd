// Package obstats is the persistent observed-statistics store behind
// adaptive re-optimization: every run feeds it with per-task observed
// selectivities, POSSIBLY feature pass fractions, crowd-sort group
// sizes, and worker latency/agreement, and the next run's optimizer
// pass seeds its estimates from that history instead of the paper's
// fixed constants (§2.6/§6 note the estimates are priors; PR 3
// recorded the estimator being factor-of-two off past them).
//
// Persistence is an internal/framelog file with one JSON record per
// Observe call, fsynced before Observe returns; a crash mid-append
// loses at most the record being written. On open all records replay
// into per-(task, kind) weighted running means.
package obstats

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"qurk/internal/framelog"
)

// Statistic kinds recorded by the executor and consumed by the
// optimizer. Kinds are plain strings on the wire so the store never
// needs a schema migration when a new one appears.
const (
	// KindSelectivity is a crowd filter's observed accept fraction
	// (accepted / input tuples), or a join's match fraction over the
	// candidate pairs actually asked.
	KindSelectivity = "selectivity"
	// KindPassFraction is the observed POSSIBLY feature pass fraction:
	// the share of candidate join pairs whose extracted features agree
	// (and therefore reach the crowd).
	KindPassFraction = "pass-fraction"
	// KindGroupSize is a crowd ORDER BY group's observed size in tuples.
	KindGroupSize = "group-size"
	// KindLatencyHours is the observed crowd makespan of one operator's
	// HIT groups, in simulated crowd-hours.
	KindLatencyHours = "latency-hours"
	// KindAgreement is the observed worker agreement (fraction of
	// assignments that voted with the majority).
	KindAgreement = "agreement"
)

// record is the on-disk JSON payload for one Observe call.
type record struct {
	Task   string    `json:"task"`
	Kind   string    `json:"kind"`
	Value  float64   `json:"value"`
	Weight float64   `json:"weight"`
	At     time.Time `json:"at"`
}

// cell is the in-memory aggregate for one (task, kind): a weighted
// running mean.
type cell struct {
	sum    float64 // Σ value·weight
	weight float64 // Σ weight
	count  int
}

// Stats is a snapshot of store traffic since open.
type Stats struct {
	// Entries is the number of distinct (task, kind) aggregates held.
	Entries int `json:"entries"`
	// Observed counts Observe calls accepted since open.
	Observed int `json:"observed"`
	// Loaded counts records replayed from the file at open.
	Loaded int `json:"loaded"`
	// PersistError is the first write or fsync failure on the backing
	// file. Once set, the store keeps serving from memory but persists
	// nothing more.
	PersistError string `json:"persist_error,omitempty"`
}

// Entry is one aggregate as listed by Snapshot.
type Entry struct {
	// Task is the crowd task name the statistic belongs to.
	Task string `json:"task"`
	// Kind is the statistic kind (one of the Kind* constants).
	Kind string `json:"kind"`
	// Value is the weighted mean of all observations.
	Value float64 `json:"value"`
	// Weight is the total observation weight behind Value.
	Weight float64 `json:"weight"`
	// Count is the number of Observe calls folded in.
	Count int `json:"count"`
}

// Store is the persistent observed-statistics store. It satisfies
// core.ObservedStats, so plugging it into an Engine's ObStats slot (or
// qurk.Client's WithStatsStore) makes every run feed it and every
// optimizer pass read it. All methods are safe for concurrent use: one
// store typically serves every tenant of a qurkd process.
type Store struct {
	mu    sync.Mutex
	cells map[string]*cell
	log   *framelog.Log // nil for a memory-only, closed or failed store
	stats Stats
	now   func() time.Time
}

// key builds the map key for one (task, kind) aggregate. Task names
// never contain NUL, so the join is unambiguous.
func key(task, kind string) string { return task + "\x00" + kind }

// Open opens (creating if needed) the store backed by the record file
// at path, replaying existing records into memory and truncating a torn
// tail left by a crash. An empty path yields a memory-only store that
// lives as long as the process — useful for tests and single-run CLIs.
func Open(path string) (*Store, error) {
	s := &Store{
		cells: make(map[string]*cell),
		now:   time.Now,
	}
	if path == "" {
		return s, nil
	}
	log, err := framelog.Open(path, os.O_CREATE, func(payload []byte) error {
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		s.fold(rec.Task, rec.Kind, rec.Value, rec.Weight)
		s.stats.Loaded++
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("obstats: open: %w", err)
	}
	s.log = log
	return s, nil
}

// fold merges one observation into its aggregate. Callers hold the
// lock (or, during replay, exclusive ownership).
func (s *Store) fold(task, kind string, value, weight float64) {
	c := s.cells[key(task, kind)]
	if c == nil {
		c = &cell{}
		s.cells[key(task, kind)] = c
	}
	c.sum += value * weight
	c.weight += weight
	c.count++
}

// Observe records one observed statistic with the given weight
// (typically the tuple or pair count it was measured over) and appends
// it to the backing file. Non-positive weights and non-finite values
// are ignored: a degenerate run must not poison history.
func (s *Store) Observe(task, kind string, value, weight float64) {
	if weight <= 0 || math.IsNaN(value) || math.IsInf(value, 0) || math.IsNaN(weight) || math.IsInf(weight, 0) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fold(task, kind, value, weight)
	s.stats.Observed++
	s.stats.Entries = len(s.cells)
	if s.log == nil {
		return
	}
	payload, err := json.Marshal(record{Task: task, Kind: kind, Value: value, Weight: weight, At: s.now()})
	if err == nil {
		err = s.log.Append(payload)
	}
	if err != nil {
		// Keep serving from memory — losing persistence is strictly
		// better than failing queries mid-run — but visibly.
		s.stats.PersistError = err.Error()
		s.log.Close()
		s.log = nil
	}
}

// Estimate returns the weighted mean and total weight for one
// (task, kind), or ok=false when nothing was ever observed.
func (s *Store) Estimate(task, kind string) (value, weight float64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, found := s.cells[key(task, kind)]
	if !found || c.weight <= 0 {
		return 0, 0, false
	}
	return c.sum / c.weight, c.weight, true
}

// Snapshot lists every aggregate, sorted by task then kind, for
// inspection endpoints and tests.
func (s *Store) Snapshot() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(s.cells))
	for k, c := range s.cells {
		var task, kind string
		for i := 0; i < len(k); i++ {
			if k[i] == 0 {
				task, kind = k[:i], k[i+1:]
				break
			}
		}
		e := Entry{Task: task, Kind: kind, Weight: c.weight, Count: c.count}
		if c.weight > 0 {
			e.Value = c.sum / c.weight
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Task != out[j].Task {
			return out[i].Task < out[j].Task
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Stats returns a snapshot of store traffic.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.cells)
	return st
}

// Len returns the number of distinct (task, kind) aggregates held.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cells)
}

// Close releases the backing file. The in-memory aggregates stay
// readable; subsequent Observes simply stop persisting.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}

// setClock overrides the record timestamp clock; tests use it for
// reproducible files.
func (s *Store) setClock(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}

// Package wal is the durability layer for crowd queries: an
// append-only, fsync-on-commit record journal that the engine writes at
// every marketplace boundary, plus the replay machinery Client.Resume
// uses to rebuild operator state after a crash.
//
// A crowd query spends real dollars per HIT and runs for hours; losing
// in-flight state to a process crash must not re-pay for answers
// already collected. The journal records an intent before each HIT
// group is posted and a result after its votes are folded, so a
// resumed run replays completed groups from disk (zero marketplace
// calls, zero duplicate spend) and re-posts only groups whose result
// never committed — which the backends absorb idempotently (MTurk via
// UniqueRequestToken re-attach, the simulator by re-deriving the same
// deterministic answers).
//
// Each record is one JSON payload in an internal/framelog frame. Every
// commit is fsynced before the caller proceeds, so the journal never
// claims work that was not durably recorded; a torn tail left by a
// crash mid-write is truncated on Open, and recovery resumes from the
// last complete record.
package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"qurk/internal/crowd"
	"qurk/internal/framelog"
)

// Record types, stored in each record's "t" field.
const (
	recMeta       = "meta"
	recIntent     = "intent"
	recResult     = "result"
	recCheckpoint = "checkpoint"
	recCharge     = "charge"
	recSeal       = "seal"
)

// SealComplete is the seal reason written when a durable run finishes
// normally; any other reason marks an interrupted-but-clean shutdown.
const SealComplete = "complete"

// Meta identifies the query a journal belongs to. Resume refuses a
// journal whose fingerprint does not match the query and engine
// configuration it was asked to resume, since replaying one query's
// results into another would silently corrupt both.
type Meta struct {
	// Version is the journal format version.
	Version int `json:"version"`
	// Query is the DSL source text, kept for human inspection.
	Query string `json:"query"`
	// Backend names the marketplace implementation (e.g. "sim",
	// "*mturk.Client").
	Backend string `json:"backend"`
	// Fingerprint hashes the query source, engine options, and backend
	// so a journal can only resume the run that created it.
	Fingerprint uint64 `json:"fingerprint"`
	// Tenant, BudgetDollars and Options are set by the query service
	// only: the tenant the query runs for, that tenant's budget, and
	// the engine's resolved options as JSON text, which the service
	// encodes and decodes. With Query and Backend they are all a
	// restarted service needs to rebuild the run. Client journals
	// leave them empty.
	Tenant        string  `json:"tenant,omitempty"`
	BudgetDollars float64 `json:"budget_dollars,omitempty"`
	Options       string  `json:"options,omitempty"`
}

// record is the on-disk JSON payload; exactly one of the per-type
// field groups is populated, keyed by T.
type record struct {
	T string `json:"t"`
	// meta
	Meta *Meta `json:"meta,omitempty"`
	// intent + result
	Key     uint64           `json:"key,omitempty"`
	GroupID string           `json:"group,omitempty"`
	HITIDs  []string         `json:"hits,omitempty"`
	Result  *crowd.RunResult `json:"result,omitempty"`
	// checkpoint
	Kind   string  `json:"kind,omitempty"`
	Label  string  `json:"label,omitempty"`
	Digest uint64  `json:"digest,omitempty"`
	Clock  float64 `json:"clock,omitempty"`
	// charge
	ChargeHITs int `json:"chits,omitempty"`
	ChargeAsn  int `json:"casn,omitempty"`
	// seal
	Reason string `json:"reason,omitempty"`
}

// Charge is one journaled budget charge: a HIT group that was priced
// against a tenant's budget before it was posted. The multi-tenant
// service writes one per group, after the in-memory ledger charge
// commits and before the group reaches the marketplace, so a restarted
// daemon can rebuild the tenant ledger exactly — groups charged before
// the crash are restored from these records and never charged again
// when the resumed run re-posts or replays them.
type Charge struct {
	// Key is the charged group's content key (Market.GroupKey).
	Key uint64
	// HITs is the group's HIT count; Assignments the per-HIT assignment
	// level the ledger entry was recorded at.
	HITs, Assignments int
}

// checkpoint is one recorded breaker checkpoint awaiting verification
// on replay.
type checkpoint struct {
	digest uint64
	clock  float64
}

// ErrDiverged reports that a resumed run recomputed a breaker
// checkpoint whose digest differs from the recorded one — the inputs
// or configuration changed since the journal was written, and
// continuing would mix two different runs' state.
var ErrDiverged = errors.New("wal: resumed run diverged from journal")

// Journal is an open write-ahead journal. All methods are safe for
// concurrent use; every append is fsynced before it returns.
type Journal struct {
	mu   sync.Mutex
	log  *framelog.Log // nil once closed
	path string
	meta Meta

	// Replay state loaded by Open. Results queue FIFO per content key
	// so even two identical groups (impossible today — group IDs are
	// unique per plan path — but cheap to be safe about) replay in
	// recording order.
	results map[uint64][]*crowd.RunResult
	pending map[uint64]int // intents without a matching result
	cps     map[string][]checkpoint
	// charges queues loaded budget-charge records FIFO per group key
	// (TakeCharge pops them); loaded keeps the full recovered list for
	// ledger reconstruction, which must see every charge even after the
	// resumed run starts consuming the queue.
	charges map[uint64]int
	loaded  []Charge
	sealed  bool
	reason  string
}

func newJournal(path string) *Journal {
	return &Journal{
		path:    path,
		results: map[uint64][]*crowd.RunResult{},
		pending: map[uint64]int{},
		cps:     map[string][]checkpoint{},
		charges: map[uint64]int{},
	}
}

// Create starts a fresh journal at path, failing if one already
// exists, and durably writes the meta record.
func Create(path string, meta Meta) (*Journal, error) {
	log, err := framelog.Open(path, os.O_CREATE|os.O_EXCL, nil)
	if err != nil {
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	if meta.Version == 0 {
		meta.Version = 1
	}
	j := newJournal(path)
	j.log, j.meta = log, meta
	if err := j.append(&record{T: recMeta, Meta: &meta}); err != nil {
		log.Close()
		os.Remove(path)
		return nil, err
	}
	return j, nil
}

// Open reads an existing journal, truncates any torn tail record left
// by a crash mid-write, loads the replay state, and positions the file
// for appending new records.
func Open(path string) (*Journal, error) {
	j := newJournal(path)
	sawMeta := false
	log, err := framelog.Open(path, 0, func(payload []byte) error {
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		switch {
		case !sawMeta && rec.T != recMeta:
			return fmt.Errorf("first record is %q, not meta", rec.T)
		case sawMeta && rec.T == recMeta:
			return errors.New("second meta record")
		case rec.T == recMeta && rec.Meta == nil:
			return errors.New("meta record without meta")
		}
		j.apply(&rec)
		sawMeta = true
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	if !sawMeta {
		log.Close()
		return nil, fmt.Errorf("wal: %s: no complete meta record", path)
	}
	j.log = log
	return j, nil
}

// apply folds one recovered record into the replay state.
func (j *Journal) apply(rec *record) {
	switch rec.T {
	case recMeta:
		j.meta = *rec.Meta
	case recIntent:
		j.pending[rec.Key]++
	case recResult:
		j.results[rec.Key] = append(j.results[rec.Key], rec.Result)
		if j.pending[rec.Key] > 0 {
			j.pending[rec.Key]--
		}
	case recCheckpoint:
		k := cpKey(rec.Kind, rec.Label)
		j.cps[k] = append(j.cps[k], checkpoint{digest: rec.Digest, clock: rec.Clock})
	case recCharge:
		j.charges[rec.Key]++
		j.loaded = append(j.loaded, Charge{Key: rec.Key, HITs: rec.ChargeHITs, Assignments: rec.ChargeAsn})
	case recSeal:
		j.sealed = true
		j.reason = rec.Reason
	}
	if rec.T != recSeal {
		// Any record after a seal reopens the journal: a resumed run
		// appended past a clean-interrupt marker.
		j.sealed = false
	}
}

func cpKey(kind, label string) string { return kind + "\x00" + label }

// append encodes, writes, and fsyncs one record. Caller holds no lock;
// append takes it.
func (j *Journal) append(rec *record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("wal: encode: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return errors.New("wal: journal closed")
	}
	if err := j.log.Append(payload); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Meta returns the journal's identifying meta record.
func (j *Journal) Meta() Meta {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.meta
}

// Sealed reports whether the journal's last record is a seal, and its
// reason. A sealed journal ended cleanly — SealComplete for a finished
// run, anything else for a graceful interrupt.
func (j *Journal) Sealed() (bool, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sealed, j.reason
}

// PendingIntents counts groups whose posting intent committed but
// whose result never did — the groups a resumed run will re-post.
func (j *Journal) PendingIntents() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, c := range j.pending {
		n += c
	}
	return n
}

// ReplayableResults counts group results loaded from disk that have
// not yet been consumed by Replay.
func (j *Journal) ReplayableResults() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, q := range j.results {
		n += len(q)
	}
	return n
}

// LogIntent durably records that a group is about to be posted.
func (j *Journal) LogIntent(key uint64, groupID string, hitIDs []string) error {
	return j.append(&record{T: recIntent, Key: key, GroupID: groupID, HITIDs: hitIDs})
}

// LogResult durably records a completed group's folded outcome.
func (j *Journal) LogResult(key uint64, res *crowd.RunResult) error {
	return j.append(&record{T: recResult, Key: key, Result: res})
}

// LogCharge durably records that a group's HITs were charged to the
// tenant's budget ledger. It is written after the in-memory charge
// commits and before the group posts, so a crash in between replays as
// "already charged". Live appends do not enter the recovered-charge
// queue: only records loaded at Open are consumable by TakeCharge.
func (j *Journal) LogCharge(key uint64, hits, assignments int) error {
	return j.append(&record{T: recCharge, Key: key, ChargeHITs: hits, ChargeAsn: assignments})
}

// TakeCharge pops one recovered charge record for key, reporting
// whether the group was already charged before the crash — the caller
// must then skip re-charging the tenant for it.
func (j *Journal) TakeCharge(key uint64) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.charges[key] == 0 {
		return false
	}
	j.charges[key]--
	if j.charges[key] == 0 {
		delete(j.charges, key)
	}
	return true
}

// Charges returns every charge record recovered at Open, in journal
// order. Recovery uses it to rebuild the tenant's ledger before the
// resumed run starts consuming the queue via TakeCharge.
func (j *Journal) Charges() []Charge {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Charge, len(j.loaded))
	copy(out, j.loaded)
	return out
}

// Replay pops the recorded result for a group key, or nil when the
// journal holds none — the group must then be (re-)posted for real.
func (j *Journal) Replay(key uint64) *crowd.RunResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	q := j.results[key]
	if len(q) == 0 {
		return nil
	}
	res := q[0]
	if len(q) == 1 {
		delete(j.results, key)
	} else {
		j.results[key] = q[1:]
	}
	return res
}

// Checkpoint implements core.JournalSink: it verifies a recomputed
// breaker checkpoint against the journal when one was recorded
// (failing loudly with ErrDiverged on mismatch) and durably appends it
// otherwise. Each (kind, label) keeps its own FIFO so concurrent
// operator phases cannot race each other's checkpoints.
func (j *Journal) Checkpoint(kind, label string, digest uint64, clock float64) error {
	j.mu.Lock()
	k := cpKey(kind, label)
	if q := j.cps[k]; len(q) > 0 {
		rec := q[0]
		if len(q) == 1 {
			delete(j.cps, k)
		} else {
			j.cps[k] = q[1:]
		}
		j.mu.Unlock()
		if rec.digest != digest {
			return fmt.Errorf("%w: %s %q digest %#x, journal has %#x", ErrDiverged, kind, label, digest, rec.digest)
		}
		return nil
	}
	j.mu.Unlock()
	return j.append(&record{T: recCheckpoint, Kind: kind, Label: label, Digest: digest, Clock: clock})
}

// Seal durably marks a clean end of the journal. Reason SealComplete
// means the run finished; any other reason records why it stopped. A
// sealed journal still resumes — resuming a complete one just replays
// everything and returns the same result.
func (j *Journal) Seal(reason string) error {
	if err := j.append(&record{T: recSeal, Reason: reason}); err != nil {
		return err
	}
	j.mu.Lock()
	j.sealed = true
	j.reason = reason
	j.mu.Unlock()
	return nil
}

// Close releases the journal file. It does not seal; a journal closed
// without sealing reads as crashed-but-consistent.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return nil
	}
	err := j.log.Close()
	j.log = nil
	return err
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

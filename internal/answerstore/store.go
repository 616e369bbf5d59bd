// Package answerstore implements the paper's task cache (Fig. 1, §2.6)
// as a persistent, concurrency-safe, cross-query answer store: crowd
// votes for a question keyed by normalized content (task, kind, tuple
// content via Question.CacheKey) outlive the query that paid for them,
// so an identical question asked later — by the same run, the same
// tenant, or a different one — is served from the store instead of
// being re-posted to the marketplace. Every crowd operator reads and
// feeds it through its poster (internal/poster); across runs crowd
// labor is the scarce resource, and dedup across traffic is what makes
// the unit economics of a shared query service work.
//
// Open with an empty path for a memory-only store.
//
// Persistence is an internal/framelog file with one JSON record per
// Store call, fsynced before Store returns; a crash mid-append loses at
// most the record being written.
package answerstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"sync"
	"time"

	"qurk/internal/framelog"
	"qurk/internal/hit"
)

// Policy gates which stored entries may be served.
type Policy struct {
	// MinAgreement is the minimum number of stored votes an entry needs
	// before Lookup will serve it. Entries below the floor stay stored
	// (a later run may add votes) but read as misses. Zero means any
	// non-empty entry qualifies.
	MinAgreement int
	// MaxAge is how long an entry stays servable after it was stored.
	// Zero means entries never go stale. Stale entries read as misses
	// and are overwritten by the next Store for the same key.
	MaxAge time.Duration
}

// entry locates one stored question's votes in the arena: Store.votes
// [off, off+n), stored at storedAt (Unix nanoseconds).
type entry struct {
	off, n   uint32
	storedAt int64
}

// vote is one worker's answer in packed form. worker indexes the
// interned worker IDs and payload the interned Fields/Pairs/Order
// triples; Bool and Rating sit inline. A vote holds no pointers, so the
// arena of every vote ever stored costs the GC nothing to scan.
type vote struct {
	worker  uint32
	payload uint32
	rating  int32
	yes     bool
}

// payload is one interned Fields/Pairs/Order triple, shared read-only
// by every stored vote and served answer that carries that content.
type payload struct {
	fields map[string]string
	pairs  [][2]int
	order  []int
}

// record is the on-disk JSON payload for one Store call.
type record struct {
	Key      uint64             `json:"key"`
	Task     string             `json:"task"`
	Kind     uint8              `json:"kind"`
	StoredAt time.Time          `json:"stored_at"`
	Answers  []hit.CachedAnswer `json:"answers"`
}

// Stats is a snapshot of store traffic since open.
type Stats struct {
	// Entries is the number of distinct questions currently held.
	Entries int `json:"entries"`
	// Hits counts Lookups served from the store.
	Hits int `json:"hits"`
	// Misses counts Lookups that found nothing servable.
	Misses int `json:"misses"`
	// Stored counts Store calls accepted since open.
	Stored int `json:"stored"`
	// Loaded counts entries replayed from the file at open.
	Loaded int `json:"loaded"`
	// PersistError is the first write or fsync failure on the backing
	// file. Once set, the store keeps serving from memory but persists
	// nothing more.
	PersistError string `json:"persist_error,omitempty"`
}

// Store is a cross-query answer store. It satisfies core.AnswerStore, so
// plugging it into an Engine's Answers slot routes every crowd operator's
// question minting through it. All methods are safe for concurrent use
// by any number of queries.
//
// In memory the votes are packed: entries index one append-only arena
// of pointer-free votes, worker IDs and answer payloads are interned
// once each, and a question's votes are decoded back into
// hit.CachedAnswers only on its first servable Lookup and memoized
// from then on. Memory grows linearly in distinct questions, at about
// 16 bytes per stored vote plus the map slot.
type Store struct {
	mu      sync.Mutex
	entries map[uint64]entry
	// votes is the arena. A replacement that fits reuses its entry's
	// slot; a larger one appends. Offsets are 32-bit: 2^32 votes would
	// take 64 GiB.
	votes     []vote
	workers   []string // interned worker IDs, indexed by vote.worker
	workerIx  map[string]uint32
	payloads  []payload // interned payloads; [0] is all nil
	payloadIx map[string]uint32
	// served memoizes each served entry's decoded votes, so repeat
	// hits allocate nothing. Store drops a key's memo on replacement.
	served map[uint64][]hit.CachedAnswer
	pol    Policy
	log    *framelog.Log // nil for a memory-only, closed or failed store
	stats  Stats
	now    func() time.Time
}

// Open opens (creating if needed) the store backed by the record file at
// path, replaying existing records into memory and truncating a torn
// tail left by a crash. An empty path yields a memory-only store that
// lives as long as the process — useful for tests and single-run CLIs.
func Open(path string, pol Policy) (*Store, error) {
	s := &Store{
		entries:   make(map[uint64]entry),
		workerIx:  make(map[string]uint32),
		payloads:  make([]payload, 1),
		payloadIx: make(map[string]uint32),
		served:    make(map[uint64][]hit.CachedAnswer),
		pol:       pol,
		now:       time.Now,
	}
	if path == "" {
		return s, nil
	}
	log, err := framelog.Open(path, os.O_CREATE, func(payload []byte) error {
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		s.put(rec.Key, rec.StoredAt.UnixNano(), rec.Answers, payloadKeys(rec.Answers))
		s.stats.Loaded++
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("answerstore: open: %w", err)
	}
	s.log = log
	return s, nil
}

// servable reports whether e passes the policy gates at time now.
func (s *Store) servable(e entry, now time.Time) bool {
	if e.n == 0 {
		return false
	}
	if s.pol.MinAgreement > 0 && int(e.n) < s.pol.MinAgreement {
		return false
	}
	if s.pol.MaxAge > 0 && now.UnixNano()-e.storedAt > int64(s.pol.MaxAge) {
		return false
	}
	return true
}

// Lookup returns the stored votes for a question if a servable entry
// exists under the policy (enough votes, fresh enough). The returned
// slice is shared — callers must not mutate it — and its answers carry
// no QuestionID: the question that paid for them is not the asker's.
func (s *Store) Lookup(q *hit.Question) ([]hit.CachedAnswer, bool) {
	key := q.CacheKey()
	s.mu.Lock()
	defer s.mu.Unlock()
	if as, ok := s.lookup(key); ok {
		s.stats.Hits++
		return as, true
	}
	s.stats.Misses++
	return nil, false
}

// lookup returns key's decoded votes if its entry is servable, decoding
// and memoizing them on the first hit. Callers hold s.mu.
func (s *Store) lookup(key uint64) ([]hit.CachedAnswer, bool) {
	e, ok := s.entries[key]
	if !ok || !s.servable(e, s.now()) {
		return nil, false
	}
	if as, ok := s.served[key]; ok {
		return as, true
	}
	as := make([]hit.CachedAnswer, e.n)
	for i, v := range s.votes[e.off : e.off+e.n] {
		p := &s.payloads[v.payload]
		as[i] = hit.CachedAnswer{
			WorkerID: s.workers[v.worker],
			Answer: hit.Answer{Bool: v.yes, Rating: int(v.rating),
				Fields: p.fields, Pairs: p.pairs, Order: p.order},
		}
	}
	s.served[key] = as
	return as, true
}

// Store records votes for a question, replacing any prior entry, and
// appends the record to the backing file (fsynced before return, so a
// served answer is never lost to a crash). Empty vote sets are ignored:
// a question whose assignments all expired must not poison the store.
func (s *Store) Store(q *hit.Question, answers []hit.CachedAnswer) {
	if len(answers) == 0 {
		return
	}
	key := q.CacheKey()
	pkeys := payloadKeys(answers)
	s.mu.Lock()
	defer s.mu.Unlock()
	at := s.now()
	s.put(key, at.UnixNano(), answers, pkeys)
	s.stats.Stored++
	s.stats.Entries = len(s.entries)
	if s.log == nil {
		return
	}
	payload, err := json.Marshal(record{Key: key, Task: q.Task, Kind: uint8(q.Kind), StoredAt: at, Answers: answers})
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

// put packs answers into the arena as key's entry, overwriting the old
// slot in place when the new votes fit. pkeys holds each answer's
// payloadKey (nil when every payload is nil). Callers hold s.mu or own s.
func (s *Store) put(key uint64, at int64, answers []hit.CachedAnswer, pkeys []string) {
	n := uint32(len(answers))
	e, ok := s.entries[key]
	if !ok || n > e.n {
		e.off = uint32(len(s.votes))
		s.votes = append(s.votes, make([]vote, n)...)
	}
	slot := s.votes[e.off : e.off+n]
	for i := range answers {
		a := &answers[i]
		var p uint32
		if pkeys != nil && pkeys[i] != "" {
			p = s.internPayload(pkeys[i], &a.Answer)
		}
		slot[i] = vote{worker: s.internWorker(a.WorkerID), payload: p,
			rating: int32(a.Answer.Rating), yes: a.Answer.Bool}
	}
	s.entries[key] = entry{off: e.off, n: n, storedAt: at}
	delete(s.served, key)
}

// internWorker returns id's index in the worker table, adding it if new.
func (s *Store) internWorker(id string) uint32 {
	ix, ok := s.workerIx[id]
	if !ok {
		ix = uint32(len(s.workers))
		s.workers = append(s.workers, id)
		s.workerIx[id] = ix
	}
	return ix
}

// internPayload returns the index of the payload whose content key is k,
// adding a private copy of a's Fields, Pairs and Order if new.
func (s *Store) internPayload(k string, a *hit.Answer) uint32 {
	ix, ok := s.payloadIx[k]
	if !ok {
		ix = uint32(len(s.payloads))
		s.payloads = append(s.payloads, payload{
			fields: maps.Clone(a.Fields), pairs: slices.Clone(a.Pairs), order: slices.Clone(a.Order)})
		s.payloadIx[k] = ix
	}
	return ix
}

// payloadKeys returns each answer's payloadKey, or nil when every
// answer's payload is nil (all filter, join-pair and rating votes).
func payloadKeys(as []hit.CachedAnswer) []string {
	var keys []string
	for i := range as {
		if k := payloadKey(&as[i].Answer); k != "" {
			if keys == nil {
				keys = make([]string, len(as))
			}
			keys[i] = k
		}
	}
	return keys
}

// payloadKey encodes a's Fields (in name order), Pairs and Order by
// content, or returns "" when all three are nil. Each part is tagged
// present or nil, so an empty Pairs — the grid's "no matches" — keys
// apart from a nil one.
func payloadKey(a *hit.Answer) string {
	if a.Fields == nil && a.Pairs == nil && a.Order == nil {
		return ""
	}
	var buf [64]byte
	b := buf[:0]
	tag := func(present bool, n int) bool {
		if !present {
			b = append(b, 0)
			return false
		}
		b = append(b, 1)
		b = binary.AppendUvarint(b, uint64(n))
		return true
	}
	str := func(v string) {
		b = binary.AppendUvarint(b, uint64(len(v)))
		b = append(b, v...)
	}
	if tag(a.Fields != nil, len(a.Fields)) {
		var nameBuf [8]string
		names := nameBuf[:0]
		for name := range a.Fields {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			str(name)
			str(a.Fields[name])
		}
	}
	if tag(a.Pairs != nil, len(a.Pairs)) {
		for _, p := range a.Pairs {
			b = binary.AppendVarint(b, int64(p[0]))
			b = binary.AppendVarint(b, int64(p[1]))
		}
	}
	if tag(a.Order != nil, len(a.Order)) {
		for _, o := range a.Order {
			b = binary.AppendVarint(b, int64(o))
		}
	}
	return string(b)
}

// Stats returns a snapshot of store traffic.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	return st
}

// Len returns the number of distinct questions held.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Close releases the backing file. The in-memory map stays readable;
// subsequent Stores simply stop persisting.
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

// setClock overrides the freshness clock; tests use it to exercise
// MaxAge without sleeping.
func (s *Store) setClock(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}

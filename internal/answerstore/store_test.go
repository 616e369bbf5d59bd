package answerstore

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qurk/internal/framelog"
	"qurk/internal/hit"
	"qurk/internal/relation"
)

func question(task, img string) *hit.Question {
	sch := relation.MustSchema(relation.Column{Name: "img", Kind: relation.KindText})
	return &hit.Question{
		ID:    "q/" + img,
		Kind:  hit.FilterQ,
		Task:  task,
		Tuple: relation.MustTuple(sch, relation.Text(img)),
	}
}

func votes(n int, yes bool) []hit.CachedAnswer {
	as := make([]hit.CachedAnswer, n)
	for i := range as {
		as[i] = hit.CachedAnswer{
			WorkerID: string(rune('a' + i)),
			Answer:   hit.Answer{Bool: yes},
		}
	}
	return as
}

func TestMemoryStoreRoundTrip(t *testing.T) {
	s, err := Open("", Policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	q := question("isFemale", "img1")
	if _, ok := s.Lookup(q); ok {
		t.Fatal("empty store should miss")
	}
	s.Store(q, votes(3, true))
	got, ok := s.Lookup(q)
	if !ok || len(got) != 3 {
		t.Fatalf("want 3 votes, got %v ok=%v", got, ok)
	}
	// Same content under a different question ID still hits.
	q2 := question("isFemale", "img1")
	q2.ID = "other/id"
	if _, ok := s.Lookup(q2); !ok {
		t.Fatal("content-keyed lookup should ignore question ID")
	}
	// Different content misses.
	if _, ok := s.Lookup(question("isFemale", "img2")); ok {
		t.Fatal("different tuple should miss")
	}
	st := s.Stats()
	if st.Entries != 1 || st.Hits != 2 || st.Misses != 2 || st.Stored != 1 {
		t.Fatalf("unexpected stats %+v", st)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestEmptyVotesIgnored(t *testing.T) {
	s, _ := Open("", Policy{})
	q := question("t", "x")
	s.Store(q, nil)
	if _, ok := s.Lookup(q); ok {
		t.Fatal("empty vote set must not be stored")
	}
}

func TestMinAgreementPolicy(t *testing.T) {
	s, _ := Open("", Policy{MinAgreement: 3})
	q := question("t", "x")
	s.Store(q, votes(2, true))
	if _, ok := s.Lookup(q); ok {
		t.Fatal("2 votes below MinAgreement=3 must miss")
	}
	s.Store(q, votes(3, true))
	mustServe(t, s, q, votes(3, true))
}

func TestMaxAgePolicy(t *testing.T) {
	s, _ := Open("", Policy{MaxAge: time.Hour})
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	now := base
	s.setClock(func() time.Time { return now })

	q := question("t", "x")
	s.Store(q, votes(5, true))
	mustServe(t, s, q, votes(5, true))
	now = base.Add(2 * time.Hour)
	if _, ok := s.Lookup(q); ok {
		t.Fatal("stale entry should miss, memoized or not")
	}
	// Restoring overwrites the stale entry.
	s.Store(q, votes(5, false))
	mustServe(t, s, q, votes(5, false))
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "answers.log")
	s, err := Open(path, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	s.Store(question("isFemale", "img1"), votes(5, true))
	s.Store(question("isFemale", "img2"), votes(5, false))
	s.Store(question("isFemale", "img1"), votes(4, false)) // replaces img1
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("want 2 entries after reopen, got %d", s2.Len())
	}
	got, ok := s2.Lookup(question("isFemale", "img1"))
	if !ok || len(got) != 4 || got[0].Answer.Bool {
		t.Fatalf("img1 should replay the replacement entry, got %v ok=%v", got, ok)
	}
	if st := s2.Stats(); st.Loaded != 3 {
		t.Fatalf("want 3 records loaded, got %+v", st)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "answers.log")
	s, _ := Open(path, Policy{})
	s.Store(question("t", "a"), votes(5, true))
	s.Store(question("t", "b"), votes(5, true))
	s.Close()

	// Simulate a crash mid-append: chop the last record in half, then
	// also try a corrupted CRC on the remaining tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := framelog.HeaderSize + int(binary.LittleEndian.Uint32(data[0:4]))
	torn := data[:firstLen+framelog.HeaderSize+2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("want 1 entry after torn-tail recovery, got %d", s2.Len())
	}
	if _, ok := s2.Lookup(question("t", "a")); !ok {
		t.Fatal("first record should survive")
	}
	// The torn bytes are gone: appending works and survives reopen.
	s2.Store(question("t", "c"), votes(5, true))
	s2.Close()
	s3, err := Open(path, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 2 {
		t.Fatalf("want 2 entries after re-append, got %d", s3.Len())
	}

	// CRC corruption ends replay at the same boundary.
	data, _ = os.ReadFile(path)
	data[firstLen+4] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s4, err := Open(path, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer s4.Close()
	if s4.Len() != 1 {
		t.Fatalf("want 1 entry after CRC corruption, got %d", s4.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "answers.log")
	s, err := Open(path, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	imgs := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				img := imgs[(g+i)%len(imgs)]
				q := question("t", img)
				if _, ok := s.Lookup(q); !ok {
					s.Store(q, votes(5, true))
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != len(imgs) {
		t.Fatalf("want %d entries, got %d", len(imgs), s.Len())
	}
}

func TestCanonicalKeySharing(t *testing.T) {
	// Two queries projecting the same content under different column
	// order and alias qualifiers share one entry — the normalization fix
	// the cross-query store depends on.
	s, _ := Open("", Policy{})
	a := relation.MustSchema(
		relation.Column{Name: "c.name", Kind: relation.KindText},
		relation.Column{Name: "c.img", Kind: relation.KindText},
	)
	b := relation.MustSchema(
		relation.Column{Name: "img", Kind: relation.KindText},
		relation.Column{Name: "name", Kind: relation.KindText},
	)
	qa := &hit.Question{ID: "a", Kind: hit.FilterQ, Task: "t",
		Tuple: relation.MustTuple(a, relation.Text("alice"), relation.Text("alice.jpg"))}
	qb := &hit.Question{ID: "b", Kind: hit.FilterQ, Task: "t",
		Tuple: relation.MustTuple(b, relation.Text("alice.jpg"), relation.Text("alice"))}
	s.Store(qa, votes(5, true))
	if _, ok := s.Lookup(qb); !ok {
		t.Fatal("reordered/qualified projection of identical content should hit")
	}
}

func TestWriteFailureLatchesPersistError(t *testing.T) {
	// Every write to /dev/full fails with ENOSPC, as on a full disk.
	s, err := Open("/dev/full", Policy{})
	if err != nil {
		t.Skipf("no /dev/full to inject write failures: %v", err)
	}
	s.Store(question("t", "a"), votes(3, true))
	first := s.Stats().PersistError
	if !strings.Contains(first, "no space") {
		t.Fatalf("PersistError = %q, want the ENOSPC write failure", first)
	}
	s.Store(question("t", "b"), votes(3, true))
	if st := s.Stats(); st.PersistError != first || st.Stored != 2 {
		t.Fatalf("Stats = %+v, want the first error latched and both answers stored", st)
	}
	if _, ok := s.Lookup(question("t", "b")); !ok {
		t.Fatal("store stopped serving from memory after losing persistence")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after a write failure: %v", err)
	}
}

// servedAs is what Lookup must return for stored answers: the same
// votes with QuestionID cleared.
func servedAs(in []hit.CachedAnswer) []hit.CachedAnswer {
	out := make([]hit.CachedAnswer, len(in))
	copy(out, in)
	for i := range out {
		out[i].Answer.QuestionID = ""
	}
	return out
}

// mustServe fails unless s serves exactly servedAs(want) for q.
func mustServe(t *testing.T, s *Store, q *hit.Question, want []hit.CachedAnswer) {
	t.Helper()
	got, ok := s.Lookup(q)
	if !ok {
		t.Fatalf("%s: miss, want %d votes", q.ID, len(want))
	}
	if w := servedAs(want); !reflect.DeepEqual(got, w) {
		t.Fatalf("%s: served %#v, want %#v", q.ID, got, w)
	}
}

// kindCases holds one vote set per answer kind, with nil and empty
// payloads kept apart.
var kindCases = []struct {
	name    string
	kind    hit.Kind
	answers []hit.CachedAnswer
}{
	{"filter", hit.FilterQ, []hit.CachedAnswer{
		{WorkerID: "w1", Answer: hit.Answer{QuestionID: "q/1", Bool: true}},
		{WorkerID: "w2", Answer: hit.Answer{QuestionID: "q/1"}},
	}},
	{"join-pair", hit.JoinPairQ, []hit.CachedAnswer{
		{WorkerID: "w2", Answer: hit.Answer{QuestionID: "q/2", Bool: true}},
		{WorkerID: "w3", Answer: hit.Answer{QuestionID: "q/2", Bool: true}},
	}},
	{"rate", hit.RateQ, []hit.CachedAnswer{
		{WorkerID: "w1", Answer: hit.Answer{QuestionID: "q/3", Rating: 1}},
		{WorkerID: "w4", Answer: hit.Answer{QuestionID: "q/3", Rating: 7}},
	}},
	{"generative", hit.GenerativeQ, []hit.CachedAnswer{
		{WorkerID: "w1", Answer: hit.Answer{QuestionID: "q/4", Fields: map[string]string{"color": "red", "size": "big"}}},
		{WorkerID: "w2", Answer: hit.Answer{QuestionID: "q/4", Fields: map[string]string{}}},
		{WorkerID: "w3", Answer: hit.Answer{QuestionID: "q/4"}},
		{WorkerID: "w4", Answer: hit.Answer{QuestionID: "q/4", Fields: map[string]string{"size": "big", "color": "red"}}},
	}},
	{"join-grid", hit.JoinGridQ, []hit.CachedAnswer{
		{WorkerID: "w1", Answer: hit.Answer{QuestionID: "q/5", Pairs: [][2]int{{0, 1}, {2, 3}}}},
		{WorkerID: "w2", Answer: hit.Answer{QuestionID: "q/5", Pairs: [][2]int{}}},
		{WorkerID: "w3", Answer: hit.Answer{QuestionID: "q/5"}},
	}},
	{"compare", hit.CompareQ, []hit.CachedAnswer{
		{WorkerID: "w5", Answer: hit.Answer{QuestionID: "q/6", Order: []int{2, 0, 1}}},
		{WorkerID: "w1", Answer: hit.Answer{QuestionID: "q/6", Order: []int{}}},
	}},
}

func TestRoundTripEveryAnswerKind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "answers.log")
	s, err := Open(path, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]*hit.Question, len(kindCases))
	for i, c := range kindCases {
		qs[i] = question(c.name, "img")
		qs[i].Kind = c.kind
		s.Store(qs[i], c.answers)
	}
	for i, c := range kindCases {
		t.Run(c.name, func(t *testing.T) { mustServe(t, s, qs[i], c.answers) })
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i, c := range kindCases {
		t.Run(c.name+"/reopened", func(t *testing.T) { mustServe(t, s2, qs[i], c.answers) })
	}
}

func TestAnswerFieldsAllPacked(t *testing.T) {
	// The packed vote keeps Bool and Rating inline and Fields, Pairs and
	// Order in the payload table; QuestionID is dropped. A new Answer
	// field must be packed too, or Lookup silently loses it.
	var names []string
	typ := reflect.TypeOf(hit.Answer{})
	for i := 0; i < typ.NumField(); i++ {
		names = append(names, typ.Field(i).Name)
	}
	if got := strings.Join(names, ","); got != "QuestionID,Bool,Fields,Pairs,Order,Rating" {
		t.Fatalf("hit.Answer fields are %s; pack the new ones into vote or payload", got)
	}
}

func TestReplacementFewerAndMoreVotes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "answers.log")
	s, err := Open(path, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := question("t", "a"), question("t", "b")
	s.Store(a, votes(5, true))
	s.Store(b, votes(3, false))
	mustServe(t, s, a, votes(5, true))

	fewer := votes(2, false)
	s.Store(a, fewer) // fits: overwrites a's slot in place
	mustServe(t, s, a, fewer)
	mustServe(t, s, b, votes(3, false))

	more := kindCases[3].answers // 4 generative votes into a 2-vote slot
	s.Store(a, more)
	mustServe(t, s, a, more)
	mustServe(t, s, b, votes(3, false))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	mustServe(t, s2, a, more)
	mustServe(t, s2, b, votes(3, false))
}

func TestIdenticalPayloadsDecodeEqual(t *testing.T) {
	s, _ := Open("", Policy{})
	mk := func() []hit.CachedAnswer {
		return []hit.CachedAnswer{
			{WorkerID: "w1", Answer: hit.Answer{Fields: map[string]string{"color": "red"}, Pairs: [][2]int{{1, 2}}}},
			{WorkerID: "w2", Answer: hit.Answer{Order: []int{1, 0}}},
		}
	}
	a, b := question("t", "a"), question("t", "b")
	s.Store(a, mk())
	s.Store(b, mk())
	got, _ := s.Lookup(a)
	want, _ := s.Lookup(b)
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, mk()) {
		t.Fatalf("identical payloads decode to %#v and %#v, want %#v", got, want, mk())
	}
	if n := len(s.payloads); n != 3 {
		t.Fatalf("payload table holds %d entries, want 3 (nil + two distinct)", n)
	}
}

func TestRepeatLookupAllocatesNothing(t *testing.T) {
	s, _ := Open("", Policy{MinAgreement: 2, MaxAge: time.Hour})
	q := question("t", "x")
	s.Store(q, kindCases[3].answers)
	if _, ok := s.Lookup(q); !ok {
		t.Fatal("stored entry should hit")
	}
	// Hashing the question's content may allocate; serving must not.
	hashing := testing.AllocsPerRun(100, func() { q.CacheKey() })
	if n := testing.AllocsPerRun(100, func() { s.Lookup(q) }) - hashing; n != 0 {
		t.Fatalf("repeat Lookup of a served key allocates %v times beyond CacheKey, want 0", n)
	}
}

func TestFootprintPerEntry(t *testing.T) {
	const entries, perEntry, workers = 10000, 5, 50
	qs := make([]*hit.Question, entries)
	for i := range qs {
		qs[i] = question("isFemale", strconv.Itoa(i))
		qs[i].CacheKey()
	}
	ids := make([]string, workers)
	for i := range ids {
		ids[i] = "worker-" + strconv.Itoa(i)
	}
	vs := make([]hit.CachedAnswer, perEntry)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, _ := Open("", Policy{})
	for i, q := range qs {
		for j := range vs {
			vs[j] = hit.CachedAnswer{WorkerID: ids[(i+j)%workers],
				Answer: hit.Answer{QuestionID: q.ID, Bool: (i+j)%3 == 0}}
		}
		s.Store(q, vs)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	runtime.KeepAlive(qs)
	perEntryBytes := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / entries
	t.Logf("%d B of live heap per %d-vote entry", perEntryBytes, perEntry)
	if perEntryBytes > 200 {
		t.Fatalf("store holds %d B per %d-vote entry, want ≤ 200", perEntryBytes, perEntry)
	}
}

package answerstore

import (
	"encoding/binary"
	"os"
	"path/filepath"
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
	if _, ok := s.Lookup(q); !ok {
		t.Fatal("3 votes should hit")
	}
}

func TestMaxAgePolicy(t *testing.T) {
	s, _ := Open("", Policy{MaxAge: time.Hour})
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	now := base
	s.setClock(func() time.Time { return now })

	q := question("t", "x")
	s.Store(q, votes(5, true))
	if _, ok := s.Lookup(q); !ok {
		t.Fatal("fresh entry should hit")
	}
	now = base.Add(2 * time.Hour)
	if _, ok := s.Lookup(q); ok {
		t.Fatal("stale entry should miss")
	}
	// Restoring overwrites the stale entry.
	s.Store(q, votes(5, false))
	if got, ok := s.Lookup(q); !ok || got[0].Answer.Bool {
		t.Fatal("restored entry should hit with new votes")
	}
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

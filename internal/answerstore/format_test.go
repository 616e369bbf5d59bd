package answerstore

// On-disk format pin: testdata/answers.log was written by the store
// code that predates internal/framelog, from exactly the operations in
// writeFormatFixture. The current code must replay it to the same
// entries and must write the same bytes for the same operations. Never
// regenerate the fixture from the code under test — that would pin
// nothing.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"qurk/internal/hit"
)

// writeFormatFixture performs the operations behind testdata/answers.log
// at a fixed clock, including one replacement, and returns the store.
func writeFormatFixture(t *testing.T, path string) *Store {
	t.Helper()
	s, err := Open(path, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	s.setClock(func() time.Time { return time.Unix(1700000000, 0).UTC() })
	s.Store(question("isFemale", "img1"), votes(3, true))
	s.Store(question("isFemale", "img2"), votes(2, false))
	s.Store(question("hairColor", "img1"), []hit.CachedAnswer{
		{WorkerID: "w9", Answer: hit.Answer{QuestionID: "q/img1", Fields: map[string]string{"color": "brown"}}},
	})
	s.Store(question("isFemale", "img1"), votes(4, false))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPinnedStoreFileReplays(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "answers.log"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "answers.log")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Loaded != 4 || st.Entries != 3 {
		t.Fatalf("Stats = %+v, want 4 loaded into 3 entries", st)
	}
	want := writeFormatFixture(t, filepath.Join(t.TempDir(), "live.log"))
	if !reflect.DeepEqual(s.entries, want.entries) {
		t.Fatalf("replayed entries %+v, want %+v", s.entries, want.entries)
	}
}

func TestStoreBytesMatchPinnedFormat(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "answers.log"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "answers.log")
	writeFormatFixture(t, path)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fixture) {
		t.Fatalf("store bytes differ from the pinned format (%d vs %d bytes)", len(got), len(fixture))
	}
}

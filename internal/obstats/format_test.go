package obstats

// On-disk format pin: testdata/stats.qst was written by the store code
// that predates internal/framelog, from exactly the operations in
// writeFormatFixture. The current code must replay it to the same
// aggregates and must write the same bytes for the same operations.
// Never regenerate the fixture from the code under test — that would
// pin nothing.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// writeFormatFixture performs the operations behind testdata/stats.qst
// at a fixed clock and returns the store.
func writeFormatFixture(t *testing.T, path string) *Store {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.setClock(func() time.Time { return time.Unix(1700000000, 0).UTC() })
	s.Observe("isFemale", KindSelectivity, 0.4, 20)
	s.Observe("isFemale", KindSelectivity, 0.6, 20)
	s.Observe("samePerson", KindPassFraction, 0.125, 64)
	s.Observe("squareSorter", KindGroupSize, 12, 1)
	s.Observe("squareSorter", KindLatencyHours, 1.75, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPinnedStatsFileReplays(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "stats.qst"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stats.qst")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Loaded != 5 || st.Entries != 4 {
		t.Fatalf("Stats = %+v, want 5 loaded into 4 entries", st)
	}
	want := writeFormatFixture(t, filepath.Join(t.TempDir(), "live.qst"))
	if got := s.Snapshot(); !reflect.DeepEqual(got, want.Snapshot()) {
		t.Fatalf("replayed snapshot %+v, want %+v", got, want.Snapshot())
	}
}

func TestStatsBytesMatchPinnedFormat(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "stats.qst"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stats.qst")
	writeFormatFixture(t, path)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fixture) {
		t.Fatalf("stats bytes differ from the pinned format (%d vs %d bytes)", len(got), len(fixture))
	}
}

package wal

// On-disk format pin: testdata/sealed.qjl was written by the journal
// code that predates internal/framelog, from exactly the operations in
// writeFormatFixture. The current code must replay it to the same
// state and must write the same bytes for the same operations. Never
// regenerate the fixture from the code under test — that would pin
// nothing.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"qurk/internal/crowd"
	"qurk/internal/hit"
)

var fixtureMeta = Meta{
	Version:     1,
	Query:       "SELECT c.name FROM celeb AS c WHERE isFemale(c.img)",
	Backend:     "sim",
	Fingerprint: 0x5eed,
}

func fixtureResult() *crowd.RunResult {
	return &crowd.RunResult{
		Assignments: []hit.Assignment{
			{ID: "h0/a0", HITID: "h0", WorkerID: "w1", Answers: []hit.Answer{{QuestionID: "q0", Bool: true}}, SubmitHours: 0.25},
			{ID: "h1/a0", HITID: "h1", WorkerID: "w2", Answers: []hit.Answer{{QuestionID: "q1", Fields: map[string]string{"gender": "female"}}}, SubmitHours: 0.5},
		},
		Incomplete:       []string{"h1"},
		Expired:          map[string]int{"h1": 1},
		MakespanHours:    0.75,
		TotalAssignments: 2,
	}
}

// writeFormatFixture performs the operations behind testdata/sealed.qjl:
// charge, intent, result and checkpoint records for one group, a second
// group left pending, and a completion seal.
func writeFormatFixture(t *testing.T, path string) {
	t.Helper()
	j, err := Create(path, fixtureMeta)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{
		j.LogCharge(7, 2, 3),
		j.LogIntent(7, "filter@q.g0", []string{"h0", "h1"}),
		j.LogResult(7, fixtureResult()),
		j.Checkpoint("sort", "ORDER BY c.name", 0xdeadbeef, 1.5),
		j.LogCharge(9, 1, 3),
		j.LogIntent(9, "filter@q.g1", []string{"h2"}),
		j.Seal(SealComplete),
		j.Close(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestPinnedJournalReplays(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "sealed.qjl"))
	if err != nil {
		t.Fatal(err)
	}
	path := tempJournal(t)
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if got := j.Meta(); got != fixtureMeta {
		t.Errorf("Meta = %+v, want %+v", got, fixtureMeta)
	}
	if sealed, reason := j.Sealed(); !sealed || reason != SealComplete {
		t.Errorf("Sealed = %v %q, want true %q", sealed, reason, SealComplete)
	}
	if got := j.PendingIntents(); got != 1 {
		t.Errorf("PendingIntents = %d, want 1", got)
	}
	if want := []Charge{{Key: 7, HITs: 2, Assignments: 3}, {Key: 9, HITs: 1, Assignments: 3}}; !reflect.DeepEqual(j.Charges(), want) {
		t.Errorf("Charges = %+v, want %+v", j.Charges(), want)
	}
	if got := j.Replay(7); !reflect.DeepEqual(got, fixtureResult()) {
		t.Errorf("Replay(7) = %+v, want %+v", got, fixtureResult())
	}
	if err := j.Checkpoint("sort", "ORDER BY c.name", 0xdeadbeef, 1.5); err != nil {
		t.Errorf("recorded checkpoint did not verify: %v", err)
	}
	if err := j.Checkpoint("sort", "ORDER BY c.name", 0xfeed, 1.5); err != nil {
		t.Errorf("a checkpoint past the recorded ones must append: %v", err)
	}
}

func TestJournalBytesMatchPinnedFormat(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "sealed.qjl"))
	if err != nil {
		t.Fatal(err)
	}
	path := tempJournal(t)
	writeFormatFixture(t, path)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fixture) {
		t.Fatalf("journal bytes differ from the pinned format (%d vs %d bytes)", len(got), len(fixture))
	}
}

package service

// Journal-file tests: what a durable query leaves on disk, and how
// Recover treats a journal that is torn, unreadable, or written by an
// older daemon next to its manifest.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"qurk/internal/framelog"
	"qurk/internal/wal"
)

// rewriteMeta replaces a journal's first frame, its meta record, with
// edit applied to the record's JSON, and keeps every later frame.
func rewriteMeta(t *testing.T, path string, edit func(meta string) string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := framelog.ReadFrame(bytes.NewReader(b), nil, len(b))
	if err != nil {
		t.Fatal(err)
	}
	rest := b[framelog.HeaderSize+len(meta):]
	out := framelog.AppendFrame(nil, []byte(edit(string(meta))))
	if err := os.WriteFile(path, append(out, rest...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// copyLegacy copies testdata/legacy/journal into a fresh directory,
// since Recover appends to the journals it resumes.
func copyLegacy(t *testing.T) string {
	t.Helper()
	src := filepath.Join("testdata", "legacy", "journal")
	dir := t.TempDir()
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRecoverLegacyManifestPair: testdata/legacy was written by the
// last daemon that kept a manifest beside each journal (commit
// 463fb21; see its README). It holds one completed query and one
// interrupted by a backend outage. Recover must serve the rows and
// rebuild the ledgers of that daemon's crash-free run, replay the
// completed query without posting, and post exactly the HITs the
// interrupted one never reached.
func TestRecoverLegacyManifestPair(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "legacy", "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		N       int `json:"n"`
		Queries []struct {
			ID     string   `json:"id"`
			Tenant string   `json:"tenant"`
			Rows   []string `json:"rows"`
		} `json:"queries"`
		Tenants []struct {
			ID            string  `json:"id"`
			BudgetDollars float64 `json:"budget_dollars"`
			SpentDollars  float64 `json:"spent_dollars"`
			HITs          int     `json:"hits"`
		} `json:"tenants"`
		ResumePosts []string `json:"resume_posts"`
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	dir := copyLegacy(t)
	m := trackingSim(want.N)
	svc, err := New(durableConfig(t, want.N, dir, m))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	for _, wq := range want.Queries {
		q, ok := svc.Get(wq.ID)
		if !ok {
			t.Fatalf("legacy query %s not recovered", wq.ID)
		}
		if st := waitTerminal(t, q); st != StateDone {
			t.Fatalf("legacy query %s = %s (%s)", wq.ID, st, q.Snapshot().Error)
		}
		if q.TenantID != wq.Tenant {
			t.Errorf("legacy query %s runs for %q, want %q", wq.ID, q.TenantID, wq.Tenant)
		}
		if got := rowStrings(q); !reflect.DeepEqual(got, wq.Rows) {
			t.Errorf("legacy query %s rows = %q, want %q", wq.ID, got, wq.Rows)
		}
	}
	for _, wt := range want.Tenants {
		got, _ := svc.TenantSnapshot(wt.ID)
		if got.BudgetDollars != wt.BudgetDollars || got.SpentDollars != wt.SpentDollars || got.HITs != wt.HITs {
			t.Errorf("tenant %s budget $%v spent $%v over %d HITs, want $%v, $%v over %d",
				wt.ID, got.BudgetDollars, got.SpentDollars, got.HITs, wt.BudgetDollars, wt.SpentDollars, wt.HITs)
		}
	}
	var posted []string
	for id := range postedSet(m) {
		posted = append(posted, id)
	}
	sort.Strings(posted)
	if !reflect.DeepEqual(posted, want.ResumePosts) {
		t.Fatalf("recovery posted %d HITs, want the %d the interrupted query never reached", len(posted), len(want.ResumePosts))
	}
}

// TestRecoverRejectsLegacyManifestMismatch: a legacy manifest whose
// query text no longer matches its journal fails that query alone with
// a fingerprint mismatch; the other legacy query still resumes.
func TestRecoverRejectsLegacyManifestMismatch(t *testing.T) {
	const n = 12
	dir := copyLegacy(t)
	path := filepath.Join(dir, "q0001.manifest.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(b), "isFemale", "isMale", 1)
	if tampered == string(b) {
		t.Fatal("tamper had no effect")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err := New(durableConfig(t, n, dir, trackingSim(n)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	q1, ok := svc.Get("q0001")
	if !ok {
		t.Fatal("mismatched legacy query vanished instead of surfacing as failed")
	}
	if sn := q1.Snapshot(); sn.State != StateFailed || !strings.Contains(sn.Error, "fingerprint mismatch") {
		t.Fatalf("mismatched legacy query = %s (%q), want failed with fingerprint mismatch", sn.State, sn.Error)
	}
	q2, ok := svc.Get("q0002")
	if !ok {
		t.Fatal("intact legacy query not recovered")
	}
	if st := waitTerminal(t, q2); st != StateDone {
		t.Fatalf("intact legacy query = %s (%s)", st, q2.Snapshot().Error)
	}
}

// TestRestartResumesTornJournal: a crash that tears the last record of
// an interrupted query's journal loses that record alone. The next boot
// resumes the query, the tenant's ledger holds every charge recorded
// before the tear, and the rows equal an uninterrupted run's. When the
// tenant, budget and options lived in a separate manifest, a torn
// manifest next to this same intact journal registered the query
// failed before the journal was read, and those charges never reached
// the ledger.
func TestRestartResumesTornJournal(t *testing.T) {
	const n = 12
	dir := t.TempDir()

	baseline, err := New(durableConfig(t, n, t.TempDir(), trackingSim(n)))
	if err != nil {
		t.Fatal(err)
	}
	if err := baseline.Recover(); err != nil {
		t.Fatal(err)
	}
	bq, err := baseline.Submit(SubmitRequest{Tenant: "alice", Query: joinQuery})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, bq); st != StateDone {
		t.Fatalf("baseline state = %s (%s)", st, bq.Snapshot().Error)
	}
	wantRows := rowStrings(bq)
	blTenant, _ := baseline.TenantSnapshot("alice")
	baseline.Close()

	svc1, err := New(durableConfig(t, n, dir, &failAfter{inner: trackingSim(n), limit: 6}))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc1.Recover(); err != nil {
		t.Fatal(err)
	}
	q1, err := svc1.Submit(SubmitRequest{Tenant: "alice", Query: joinQuery})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, q1); st != StateFailed {
		t.Fatalf("life-1 state = %s, want failed", st)
	}
	svc1.Close()

	path := svc1.journalPath(q1.ID)
	j, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	charged := 0
	for _, c := range j.Charges() {
		charged += c.HITs
	}
	j.Close()
	if charged == 0 {
		t.Fatal("life 1 journaled no charges before dying")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(durableConfig(t, n, dir, trackingSim(n)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc2.Close)
	if err := svc2.Recover(); err != nil {
		t.Fatal(err)
	}
	if got, _ := svc2.TenantSnapshot("alice"); got.HITs < charged {
		t.Fatalf("recovered ledger holds %d HITs, the torn journal recorded %d", got.HITs, charged)
	}
	q2, ok := svc2.Get(q1.ID)
	if !ok {
		t.Fatalf("query %s with a torn journal not recovered", q1.ID)
	}
	if st := waitTerminal(t, q2); st != StateDone {
		t.Fatalf("resumed state = %s (%s)", st, q2.Snapshot().Error)
	}
	if got := rowStrings(q2); !reflect.DeepEqual(got, wantRows) {
		t.Fatalf("resumed rows = %q, want %q", got, wantRows)
	}
	if got, _ := svc2.TenantSnapshot("alice"); got.SpentDollars != blTenant.SpentDollars || got.HITs != blTenant.HITs {
		t.Fatalf("ledger $%.3f/%d HITs, uninterrupted run $%.3f/%d HITs",
			got.SpentDollars, got.HITs, blTenant.SpentDollars, blTenant.HITs)
	}
}

// TestRecoverFailsUnopenableJournal: a journal that will not open fails
// alone under its file's ID, the next submission takes a later ID, and
// a durable query leaves exactly one file, its journal.
func TestRecoverFailsUnopenableJournal(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "q0003.qjl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err := New(durableConfig(t, n, dir, trackingSim(n)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	bad, ok := svc.Get("q0003")
	if !ok {
		t.Fatal("unopenable journal vanished instead of surfacing as failed")
	}
	if sn := bad.Snapshot(); sn.State != StateFailed || !strings.Contains(sn.Error, "opening journal") {
		t.Fatalf("unopenable journal = %s (%q), want failed opening the journal", sn.State, sn.Error)
	}
	q, err := svc.Submit(SubmitRequest{Tenant: "alice", Query: isFemaleQuery})
	if err != nil {
		t.Fatal(err)
	}
	if q.ID != "q0004" {
		t.Fatalf("submission after recovery took ID %s, want q0004", q.ID)
	}
	if st := waitTerminal(t, q); st != StateDone {
		t.Fatalf("state = %s (%s)", st, q.Snapshot().Error)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		names = append(names, f.Name())
	}
	if want := []string{"q0003.qjl", "q0004.qjl"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("journal dir holds %q, want %q", names, want)
	}
}

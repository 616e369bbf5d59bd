package wal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"qurk/internal/framelog"
)

// serviceMeta is a meta record as the query service writes it, with
// the tenant, budget and options fields set.
var serviceMeta = Meta{
	Version:       1,
	Query:         "SELECT c.name FROM celeb AS c WHERE isFemale(c.img)",
	Backend:       "sim",
	Fingerprint:   0xeeca8f1e16165fd7,
	Tenant:        "alice",
	BudgetDollars: 12.5,
	Options:       `{"Assignments":3,"FilterBatch":2,"Combiner":"MajorityVote"}`,
}

// FuzzJournalOpen: for arbitrary bytes, Open never panics and either
// fails or yields a journal whose meta is the one its first frame
// decodes to; a journal created with that meta opens to an equal one.
func FuzzJournalOpen(f *testing.F) {
	sealed, err := os.ReadFile(filepath.Join("testdata", "sealed.qjl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed)
	path := filepath.Join(f.TempDir(), "service.qjl")
	j, err := Create(path, serviceMeta)
	if err != nil {
		f.Fatal(err)
	}
	for _, err := range []error{j.LogCharge(7, 2, 3), j.Seal("interrupted"), j.Close()} {
		if err != nil {
			f.Fatal(err)
		}
	}
	service, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(service)
	f.Add(service[:len(service)-3])
	// A second meta record must not replace the first.
	f.Add(append(append([]byte(nil), service...), sealed...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := tempJournal(t)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(path)
		if err != nil {
			return
		}
		meta := j.Meta()
		j.Close()

		first, err := framelog.ReadFrame(bytes.NewReader(data), nil, len(data))
		if err != nil {
			t.Fatalf("Open accepted a file without a first frame: %v", err)
		}
		var rec record
		if err := json.Unmarshal(first, &rec); err != nil || rec.T != recMeta || rec.Meta == nil {
			t.Fatalf("Open accepted a first frame that is no meta record: %q", first)
		}
		if *rec.Meta != meta {
			t.Fatalf("Meta = %+v, the first frame holds %+v", meta, *rec.Meta)
		}

		want := meta
		if want.Version == 0 {
			want.Version = 1 // Create's default
		}
		again := tempJournal(t)
		c, err := Create(again, meta)
		if err != nil {
			t.Fatalf("Create with a decoded meta: %v", err)
		}
		c.Close()
		r, err := Open(again)
		if err != nil {
			t.Fatalf("Open after Create: %v", err)
		}
		defer r.Close()
		if got := r.Meta(); got != want {
			t.Fatalf("Create → Open meta = %+v, want %+v", got, want)
		}
	})
}

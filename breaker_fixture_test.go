package qurk

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// TestResumeParentBreakerJournals: testdata/breakers holds journals an
// older commit wrote for a crowd ORDER BY, two POSSIBLY joins (one
// streaming, one SmartBatch) and a join feeding a grouped crowd sort,
// each crashed mid-run (see its README). Resuming them must verify every
// recorded sort-group and join-build checkpoint, return the rows of that
// commit's uninterrupted run, and post exactly the HITs the crashed run
// never admitted.
func TestResumeParentBreakerJournals(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "breakers", "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name        string   `json:"name"`
		Dataset     string   `json:"dataset"`
		N           int      `json:"n"`
		Seed        int64    `json:"seed"`
		Query       string   `json:"query"`
		SmartJoin   bool     `json:"smart_join"`
		Checkpoints []string `json:"checkpoints"`
		Rows        []string `json:"rows"`
		ResumePosts []string `json:"resume_posts"`
	}
	if err := json.Unmarshal(b, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) != 4 {
		t.Fatalf("expected.json holds %d cases, want 4", len(cases))
	}
	for _, fc := range cases {
		t.Run(fc.Name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", "breakers", fc.Name+".qjl"))
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range fc.Checkpoints {
				if !bytes.Contains(src, []byte(`"kind":"`+kind+`"`)) {
					t.Fatalf("fixture journal holds no %s checkpoint", kind)
				}
			}
			journal := filepath.Join(t.TempDir(), fc.Name+".qjl")
			if err := os.WriteFile(journal, src, 0o644); err != nil {
				t.Fatal(err)
			}
			d, err := OpenDataset(fc.Dataset, fc.N, fc.Seed)
			if fc.Dataset == "movie" {
				m := NewMovie(MovieConfig{Scenes: fc.N, Actors: 3, Seed: fc.Seed})
				d = &DatasetBundle{Name: "movie", Catalog: NewCatalog(), Library: NewLibrary(), Oracle: m.Oracle()}
				d.Catalog.Register(m.Actors)
				d.Catalog.Register(m.Scenes)
				for _, task := range []Task{InSceneTask(), NumInSceneTask(), QualityTask()} {
					d.Library.MustRegister(task)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultMarketConfig(fc.Seed)
			cfg.TrackPosts = true
			m := NewSimMarket(cfg, d.Oracle)
			var opts Options
			if fc.SmartJoin {
				opts.JoinAlgorithm = SmartJoin
			}
			out, _, err := NewClient(m, WithDataset(d), WithOptions(opts), WithJournal(journal)).
				Resume(context.Background(), fc.Query)
			if errors.Is(err, ErrJournalDiverged) {
				t.Fatalf("resume diverged from the recorded checkpoints: %v", err)
			}
			if err != nil {
				t.Fatal(err)
			}
			rows := make([]string, out.Len())
			for i := range rows {
				rows[i] = out.Row(i).String()
			}
			if !reflect.DeepEqual(rows, fc.Rows) {
				t.Errorf("resumed rows = %q, want %q", rows, fc.Rows)
			}
			posted := append([]string(nil), m.PostedHITs()...)
			sort.Strings(posted)
			if !reflect.DeepEqual(posted, fc.ResumePosts) {
				t.Errorf("resume posted %d HITs, want the %d the crashed run never admitted",
					len(posted), len(fc.ResumePosts))
			}
		})
	}
}

//go:build ignore

// generate writes the interrupted breaker journals and expected.json in
// this directory. Run it from the root of a checkout of the commit the
// README names, never from a newer one:
//
//	go run ./testdata/breakers/generate.go -out testdata/breakers
//
// Each case runs once uninterrupted and once crashed after CrashAfter
// HITs; the crashed journal is kept, and resuming a copy of it records
// what a resume posts. The crash points were chosen so that this is
// exactly the HITs the crashed run never admitted.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"sort"

	"qurk"
	"qurk/internal/crowd"
)

type fixtureCase struct {
	Name        string   `json:"name"`
	Dataset     string   `json:"dataset"`
	N           int      `json:"n"`
	Seed        int64    `json:"seed"`
	Query       string   `json:"query"`
	SmartJoin   bool     `json:"smart_join,omitempty"`
	Checkpoints []string `json:"checkpoints,omitempty"`
	CrashAfter  int      `json:"crash_after"`
	Rows        []string `json:"rows"`
	FullPosts   int      `json:"full_posts"`
	ResumePosts []string `json:"resume_posts"`
}

const celebJoin = `SELECT c.name, p.img FROM celeb c JOIN photos p ON samePerson(c.img, p.img) AND POSSIBLY gender(c.img) = gender(p.img)`

var cases = []fixtureCase{
	{Name: "sort", Dataset: "squares", N: 40, Seed: 7, CrashAfter: 48,
		Query: `SELECT label FROM squares ORDER BY squareSorter(img)`},
	{Name: "join", Dataset: "celebrities", N: 8, Seed: 7, CrashAfter: 20, Query: celebJoin,
		Checkpoints: []string{"join-build"}},
	{Name: "join-smart", Dataset: "celebrities", N: 8, Seed: 7, CrashAfter: 4, Query: celebJoin,
		SmartJoin: true, Checkpoints: []string{"join-build"}},
	{Name: "movie", Dataset: "movie", N: 30, Seed: 7, CrashAfter: 51,
		Query:       `SELECT name, scenes.img FROM actors JOIN scenes ON inScene(actors.img, scenes.img) AND POSSIBLY numInScene(scenes.img) = 1 ORDER BY name, quality(scenes.img)`,
		Checkpoints: []string{"join-build", "sort-group"}},
}

// run executes fc on a fresh tracking simulator, journaled at path;
// crashAfter < 0 runs uninterrupted, resume resumes path instead. It
// returns the rows and the sorted posted-HIT log.
func run(fc fixtureCase, path string, crashAfter int, resume bool) ([]string, []string, error) {
	d, err := qurk.OpenDataset(fc.Dataset, fc.N, fc.Seed)
	if fc.Dataset == "movie" { // a 3-actor cast over n scenes
		m := qurk.NewMovie(qurk.MovieConfig{Scenes: fc.N, Actors: 3, Seed: fc.Seed})
		d = &qurk.DatasetBundle{Name: "movie", Catalog: qurk.NewCatalog(), Library: qurk.NewLibrary(), Oracle: m.Oracle()}
		d.Catalog.Register(m.Actors)
		d.Catalog.Register(m.Scenes)
		for _, t := range []qurk.Task{qurk.InSceneTask(), qurk.NumInSceneTask(), qurk.QualityTask()} {
			d.Library.MustRegister(t)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	cfg := qurk.DefaultMarketConfig(fc.Seed)
	cfg.TrackPosts = true
	m := qurk.NewSimMarket(cfg, d.Oracle)
	if crashAfter >= 0 {
		m.InjectCrashAfter(crashAfter)
	}
	var opts qurk.Options
	if fc.SmartJoin {
		opts.JoinAlgorithm = qurk.SmartJoin
	}
	c := qurk.NewClient(m, qurk.WithDataset(d), qurk.WithOptions(opts), qurk.WithJournal(path))
	var out *qurk.Relation
	if resume {
		out, _, err = c.Resume(context.Background(), fc.Query)
	} else {
		out, _, err = c.Run(context.Background(), fc.Query)
	}
	posted := append([]string(nil), m.PostedHITs()...)
	sort.Strings(posted)
	if err != nil {
		return nil, posted, err
	}
	rows := make([]string, out.Len())
	for i := range rows {
		rows[i] = out.Row(i).String()
	}
	return rows, posted, nil
}

func main() {
	outDir := flag.String("out", ".", "directory for the journals and expected.json")
	flag.Parse()
	scratch, err := os.MkdirTemp("", "qurk-breaker-fixture-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(scratch)
	for i := range cases {
		fc := &cases[i]
		rows, full, err := run(*fc, filepath.Join(scratch, fc.Name+".full.qjl"), -1, false)
		if err != nil {
			log.Fatalf("%s: uninterrupted run: %v", fc.Name, err)
		}
		path := filepath.Join(scratch, fc.Name+".qjl")
		_, crashed, err := run(*fc, path, fc.CrashAfter, false)
		if !errors.Is(err, crowd.ErrInjectedCrash) {
			log.Fatalf("%s: crash after %d HITs: run ended with %v", fc.Name, fc.CrashAfter, err)
		}
		journal, err := os.ReadFile(path)
		if err != nil {
			log.Fatal(err)
		}
		got, resumed, err := run(*fc, path, -1, true)
		if err != nil || !reflect.DeepEqual(got, rows) {
			log.Fatalf("%s: resume: %v, or its rows differ from the uninterrupted run", fc.Name, err)
		}
		if len(crashed)+len(resumed) != len(full) {
			log.Fatalf("%s: crashed run posted %d and resume %d HITs, uninterrupted run %d",
				fc.Name, len(crashed), len(resumed), len(full))
		}
		if err := os.WriteFile(filepath.Join(*outDir, fc.Name+".qjl"), journal, 0o644); err != nil {
			log.Fatal(err)
		}
		fc.Rows, fc.FullPosts, fc.ResumePosts = rows, len(full), resumed
	}
	b, err := json.MarshalIndent(cases, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(*outDir, "expected.json"), append(b, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
}

// Command qurk is a CLI for the Qurk crowd-powered query processor. It
// executes queries (and TASK DSL scripts) over the built-in datasets,
// printing results, the logical plan, and the HIT cost ledger.
//
// The crowd backend is selectable: the default simulated marketplace
// answers from each dataset's ground-truth oracle; -backend
// mturk-sandbox (or mturk for the real-money marketplace) posts the
// same HITs to Mechanical Turk through the REST client, with
// credentials from the standard AWS environment variables. See
// docs/BACKENDS.md for the sandbox quickstart.
//
// With -journal the run is durable: every marketplace interaction is
// recorded in a write-ahead journal, and after a crash or Ctrl-C the
// same invocation plus -resume picks the query back up with zero
// duplicate HIT posting. See docs/DURABILITY.md.
//
// Usage:
//
//	qurk -dataset celebrities -query "SELECT c.name FROM celeb AS c WHERE isFemale(c.img)"
//	qurk -dataset movie -file query.qurk -sort rate -join smart5x5
//	qurk -dataset squares -n 20 -query "SELECT label FROM squares ORDER BY squareSorter(img)"
//	qurk -backend mturk-sandbox -dataset celebrities -n 4 -query "..."
//	qurk -journal run.qjl -query "..."            # durable run
//	qurk -journal run.qjl -resume -query "..."    # continue after a crash
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"qurk"
)

func main() {
	var (
		datasetName = flag.String("dataset", "celebrities", "dataset: celebrities, squares, animals, movie")
		n           = flag.Int("n", 30, "dataset size (celebrities count or squares count)")
		seed        = flag.Int64("seed", 1, "simulation seed")
		queryText   = flag.String("query", "", "query to run")
		file        = flag.String("file", "", "script file with TASK definitions and queries")
		explainOnly = flag.Bool("explain", false, "print the costed plan each query runs (the options pinned into it), without running it")
		joinAlg     = flag.String("join", "naive5", "join interface: simple, naive<B>, smart<R>x<C>")
		sortMethod  = flag.String("sort", "compare", "sort interface: compare, rate, hybrid")
		assignments = flag.Int("assignments", 5, "workers per HIT")
		combiner    = flag.String("combiner", "MajorityVote", "vote combiner: MajorityVote or QualityAdjust")
		backend     = flag.String("backend", "sim", "crowd backend: sim (oracle-driven simulator), mturk-sandbox, or mturk (REAL MONEY)")
		endpoint    = flag.String("mturk-endpoint", "", "override the MTurk endpoint URL (e.g. an in-process fake)")
		pollSecs    = flag.Float64("mturk-poll", 15, "seconds between assignment polls on live backends")
		asnDuration = flag.Int("mturk-deadline", 600, "assignment deadline in seconds before it counts as expired")
		journalPath = flag.String("journal", "", "write-ahead journal path: run durably, resumable after a crash")
		resume      = flag.Bool("resume", false, "resume an interrupted durable run from -journal instead of starting fresh")
		statsPath   = flag.String("stats", "", "observed-statistics store file: runs feed measured selectivities/pass fractions/group sizes, and the optimizer seeds estimates from that history (empty = off)")
		replan      = flag.Bool("replan", false, "re-optimize mid-run at pipeline breakers (join interface and sort-method switches from observed statistics)")
		replanQual  = flag.Float64("replan-quality", 0, "minimum estimated quality a mid-run switch must keep (0 = default 0.85)")
	)
	flag.Parse()
	if *resume && *journalPath == "" {
		fail(fmt.Errorf("-resume requires -journal"))
	}

	opts := qurk.Options{Assignments: *assignments, Combiner: *combiner, Seed: *seed}
	if err := parseJoin(*joinAlg, &opts); err != nil {
		fail(err)
	}
	switch strings.ToLower(*sortMethod) {
	case "compare":
		opts.SortMethod = qurk.SortCompare
	case "rate":
		opts.SortMethod = qurk.SortRate
	case "hybrid":
		opts.SortMethod = qurk.SortHybrid
	default:
		fail(fmt.Errorf("unknown sort method %q", *sortMethod))
	}
	opts.MTurk = qurk.MTurkOptions{
		Endpoint:                  *endpoint,
		PollIntervalSeconds:       *pollSecs,
		AssignmentDurationSeconds: *asnDuration,
	}

	data, err := qurk.OpenDataset(*datasetName, *n, *seed)
	if err != nil {
		fail(err)
	}
	market, err := buildMarket(*backend, &opts)
	if err != nil {
		fail(err)
	}
	if market == nil {
		market = qurk.NewSimMarket(qurk.DefaultMarketConfig(*seed), data.Oracle)
	}
	clientOpts := []qurk.ClientOption{qurk.WithOptions(opts), qurk.WithDataset(data)}
	if *journalPath != "" {
		clientOpts = append(clientOpts, qurk.WithJournal(*journalPath))
	}
	if *replan {
		clientOpts = append(clientOpts, qurk.WithReplan(*replanQual))
	}
	var statsStore *qurk.StatsStore
	if *statsPath != "" {
		statsStore, err = qurk.OpenStatsStore(*statsPath)
		if err != nil {
			fail(err)
		}
		defer statsStore.Close()
		clientOpts = append(clientOpts, qurk.WithStatsStore(statsStore))
	}
	client := qurk.NewClient(market, clientOpts...)

	queries := []string{}
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			fail(err)
		}
		script, err := qurk.ParseScript(string(src))
		if err != nil {
			fail(err)
		}
		if err := client.Engine().Library.LoadScript(script); err != nil {
			fail(err)
		}
		for _, q := range script.Queries {
			queries = append(queries, q.String())
		}
	}
	if *queryText != "" {
		queries = append(queries, *queryText)
	}
	if len(queries) == 0 {
		fail(fmt.Errorf("nothing to run: pass -query or -file (tasks available: %s)",
			strings.Join(client.Engine().Library.Names(), ", ")))
	}
	if *journalPath != "" && len(queries) != 1 {
		fail(fmt.Errorf("-journal records exactly one query per journal file, got %d", len(queries)))
	}

	// Ctrl-C / SIGTERM cancels the run cooperatively: in-flight HITs
	// finish or fail fast, the journal (if any) seals consistently, and
	// the partial results and ledger are printed before the nonzero exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for _, q := range queries {
		fmt.Println("query:", q)
		plan, err := client.Explain(q)
		if err != nil {
			fail(err)
		}
		fmt.Println(plan)
		if *explainOnly {
			continue
		}
		var out *qurk.Relation
		var stats *qurk.ExecStats
		if *resume {
			out, stats, err = client.Resume(ctx, q)
		} else {
			out, stats, err = client.Run(ctx, q)
		}
		if err != nil {
			if errors.Is(ctx.Err(), context.Canceled) {
				reportInterrupted(client.Ledger(), stats, *assignments, *journalPath)
			}
			fail(err)
		}
		printRelation(out)
		fmt.Printf("\n%d HITs posted, cost $%.2f\n", stats.TotalHITs(),
			qurk.DollarCost(stats.TotalHITs(), *assignments))
		if n := stats.TotalExpired(); n > 0 {
			fmt.Printf("note: %d assignments were accepted but never submitted (expired at the deadline and re-posted within the retry budget)\n", n)
		}
		if len(stats.Incomplete) > 0 {
			fmt.Printf("WARNING: %d crowd tasks went unanswered after workers refused or abandoned their HITs and the retry budget ran out\n", len(stats.Incomplete))
		}
		fmt.Println()
	}
	if !*explainOnly {
		fmt.Println("cost ledger:")
		fmt.Println(client.Ledger().Report())
	}
}

// reportInterrupted prints what an interrupted run already paid for —
// the partial HIT and expiry counts plus the full cost ledger — and,
// when the run was journaled, how to continue it. fail() then exits
// nonzero.
func reportInterrupted(ledger *qurk.Ledger, stats *qurk.ExecStats, assignments int, journalPath string) {
	fmt.Fprintln(os.Stderr, "\ninterrupted: partial progress before shutdown:")
	if stats != nil {
		fmt.Fprintf(os.Stderr, "  %d HITs posted, cost $%.2f\n", stats.TotalHITs(),
			qurk.DollarCost(stats.TotalHITs(), assignments))
		if n := stats.TotalExpired(); n > 0 {
			fmt.Fprintf(os.Stderr, "  %d assignments expired before the interrupt\n", n)
		}
	}
	fmt.Fprintln(os.Stderr, "cost ledger:")
	fmt.Fprintln(os.Stderr, ledger.Report())
	if journalPath != "" {
		fmt.Fprintf(os.Stderr, "journal sealed; continue with -journal %s -resume\n", journalPath)
	} else {
		fmt.Fprintln(os.Stderr, "run was not journaled; re-running restarts from scratch (use -journal to make runs resumable)")
	}
}

// buildMarket resolves the -backend flag. nil means "use the dataset's
// simulator" (the sim backend needs the dataset oracle, so buildEngine
// constructs it).
func buildMarket(backend string, opts *qurk.Options) (qurk.Marketplace, error) {
	switch strings.ToLower(backend) {
	case "sim", "":
		return nil, nil
	case "mturk-sandbox", "mturk":
		if strings.EqualFold(backend, "mturk") {
			opts.MTurk.Endpoint = firstNonEmpty(opts.MTurk.Endpoint, qurk.MTurkProductionEndpoint)
			fmt.Fprintln(os.Stderr, "WARNING: -backend mturk posts HITs that cost REAL dollars and reach real workers.")
		}
		client, err := qurk.NewMTurkClient(qurk.MTurkFromOptions(opts.MTurk))
		if err != nil {
			return nil, err
		}
		if balance, err := client.CheckBalance(); err != nil {
			return nil, fmt.Errorf("MTurk credential check failed: %w", err)
		} else {
			fmt.Fprintf(os.Stderr, "MTurk endpoint %s, available balance $%s\n", client.Endpoint(), balance)
		}
		return client, nil
	default:
		return nil, fmt.Errorf("unknown backend %q (want sim, mturk-sandbox, or mturk)", backend)
	}
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// parseJoin decodes simple / naive<B> / smart<R>x<C>.
func parseJoin(s string, opts *qurk.Options) error {
	s = strings.ToLower(strings.TrimSpace(s))
	switch {
	case s == "simple":
		opts.JoinAlgorithm = qurk.SimpleJoin
		return nil
	case strings.HasPrefix(s, "naive"):
		opts.JoinAlgorithm = qurk.NaiveJoin
		if rest := strings.TrimPrefix(s, "naive"); rest != "" {
			var b int
			if _, err := fmt.Sscanf(rest, "%d", &b); err != nil || b < 1 {
				return fmt.Errorf("bad naive batch size %q", rest)
			}
			opts.JoinBatch = b
		}
		return nil
	case strings.HasPrefix(s, "smart"):
		opts.JoinAlgorithm = qurk.SmartJoin
		if rest := strings.TrimPrefix(s, "smart"); rest != "" {
			var r, c int
			if _, err := fmt.Sscanf(rest, "%dx%d", &r, &c); err != nil || r < 1 || c < 1 {
				return fmt.Errorf("bad smart grid %q", rest)
			}
			opts.GridRows, opts.GridCols = r, c
		}
		return nil
	default:
		return fmt.Errorf("unknown join interface %q", s)
	}
}

func printRelation(r *qurk.Relation) {
	if r.Schema() == nil || r.Schema().Len() == 0 {
		fmt.Println("(empty result)")
		return
	}
	for i := 0; i < r.Schema().Len(); i++ {
		if i > 0 {
			fmt.Print(" | ")
		}
		fmt.Print(r.Schema().Column(i).Name)
	}
	fmt.Println()
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		for j := 0; j < row.Len(); j++ {
			if j > 0 {
				fmt.Print(" | ")
			}
			fmt.Print(row.At(j).String())
		}
		fmt.Println()
	}
	fmt.Printf("(%d rows)\n", r.Len())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qurk:", err)
	os.Exit(1)
}

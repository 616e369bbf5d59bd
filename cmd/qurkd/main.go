// Command qurkd is the Qurk query service: a long-running HTTP daemon
// that admits crowd queries from many tenants against shared
// marketplaces and a shared cross-query answer store.
//
// Unlike the one-shot qurk CLI, qurkd amortizes crowd work across
// queries: every answered question feeds a persistent answer store
// keyed by question content, so a later query that asks the same
// thing (same task, same tuples — from any tenant) is served from the
// store and posts nothing. Tenants carry dollar budgets enforced at
// admission (the estimate of the plan the query runs must fit) and at
// every posted HIT group (mid-run cutoff). See docs/SERVICE.md for the
// API.
//
// Usage:
//
//	qurkd -addr :8080 -dataset celebrities -n 30
//	qurkd -dataset movie -store answers.qas -tenant alice=5.00 -tenant bob=2.50
//	qurkd -backend mturk-sandbox -dataset celebrities -n 4
//
// Submit and follow a query:
//
//	curl -s localhost:8080/v1/queries -d '{"tenant":"alice","query":"SELECT c.name FROM celeb AS c WHERE isFemale(c.img)"}'
//	curl -s localhost:8080/v1/queries/q0001/rows
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"qurk"
	"qurk/internal/answerstore"
	"qurk/internal/circuit"
	"qurk/internal/mturk"
	"qurk/internal/service"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "HTTP listen address")
		datasetName = flag.String("dataset", "celebrities", "dataset: celebrities, squares, animals, movie")
		n           = flag.Int("n", 30, "dataset size (celebrities count or squares count)")
		seed        = flag.Int64("seed", 1, "simulation seed")
		backend     = flag.String("backend", "sim", "crowd backend: sim (oracle-driven simulator), mturk-sandbox, or mturk (REAL MONEY)")
		endpoint    = flag.String("mturk-endpoint", "", "override the MTurk endpoint URL (e.g. an in-process fake)")
		pollSecs    = flag.Float64("mturk-poll", 15, "seconds between assignment polls on live backends")
		asnDuration = flag.Int("mturk-deadline", 600, "assignment deadline in seconds before it counts as expired")
		assignments = flag.Int("assignments", 5, "default workers per HIT")
		combiner    = flag.String("combiner", "MajorityVote", "default vote combiner: MajorityVote or QualityAdjust")
		storePath   = flag.String("store", "", "answer-store file (empty = in-memory, still shared across queries)")
		statsPath   = flag.String("stats-store", "", "observed-statistics store file shared by all tenants: runs feed measured selectivities/pass fractions/group sizes, and every admission-time estimate is seeded from that history (empty = off)")
		storeAgree  = flag.Int("store-min-agreement", 0, "serve stored answers only at or above this vote count")
		storeMaxAge = flag.Duration("store-max-age", 0, "serve stored answers only younger than this (0 = forever)")
		defBudget   = flag.Float64("default-budget", 0, "budget in dollars for tenants not named by -tenant (0 = unlimited)")
		journalDir  = flag.String("journal-dir", "", "directory of per-query WAL journals, one <id>.qjl file per query: every query becomes durable, and a restarted daemon resumes unfinished ones exactly where they stopped (empty = ephemeral)")
		cbThreshold = flag.Int("circuit-threshold", 5, "consecutive backend failures before the circuit opens and posting parks (0 = no breaker)")
		cbCooldown  = flag.Duration("circuit-cooldown", 30*time.Second, "how long an open circuit waits before probing the backend again")
		deadlineHrs = flag.Float64("deadline-hours", 0, "default wall-clock deadline per query; an overdue query fails alone, its journal stays resumable (0 = none)")
	)
	tenants := map[string]float64{}
	flag.Func("tenant", "tenant budget as id=dollars (repeatable; 0 = unlimited)", func(s string) error {
		id, amount, ok := strings.Cut(s, "=")
		if !ok || id == "" {
			return fmt.Errorf("want id=dollars, got %q", s)
		}
		d, err := strconv.ParseFloat(amount, 64)
		if err != nil || d < 0 {
			return fmt.Errorf("bad budget %q", amount)
		}
		tenants[id] = d
		return nil
	})
	flag.Parse()

	opts := qurk.Options{Assignments: *assignments, Combiner: *combiner, Seed: *seed, DeadlineHours: *deadlineHrs}
	opts.MTurk = qurk.MTurkOptions{
		Endpoint:                  *endpoint,
		PollIntervalSeconds:       *pollSecs,
		AssignmentDurationSeconds: *asnDuration,
	}

	data, err := qurk.OpenDataset(*datasetName, *n, *seed)
	if err != nil {
		fail(err)
	}
	backendName, market, err := buildMarket(*backend, *seed, data.Oracle, &opts)
	if err != nil {
		fail(err)
	}

	store, err := answerstore.Open(*storePath, answerstore.Policy{
		MinAgreement: *storeAgree,
		MaxAge:       *storeMaxAge,
	})
	if err != nil {
		fail(err)
	}
	defer store.Close()

	registry := service.NewRegistry()
	for id, budget := range tenants {
		registry.Ensure(id, budget)
	}
	cfg := service.Config{
		Backends:             map[string]qurk.Marketplace{backendName: market},
		Catalog:              data.Catalog,
		Library:              data.Library,
		Answers:              store,
		Options:              opts,
		Tenants:              registry,
		DefaultBudgetDollars: *defBudget,
		JournalDir:           *journalDir,
	}
	if *cbThreshold > 0 {
		cfg.Circuit = &circuit.Config{
			Threshold: *cbThreshold,
			Cooldown:  *cbCooldown,
			// A validation/auth/budget error proves the marketplace is
			// reachable and answering; only transport faults, 5xx, and
			// throttles (already retried inside the client) count toward
			// tripping the breaker.
			Permanent: func(err error) bool { return !mturk.IsTransient(err) },
		}
	}
	if *statsPath != "" {
		statsStore, err := qurk.OpenStatsStore(*statsPath)
		if err != nil {
			fail(err)
		}
		defer statsStore.Close()
		cfg.Stats = statsStore
	}
	svc, err := service.New(cfg)
	if err != nil {
		fail(err)
	}
	// Replay journaled queries before accepting traffic; resumed runs
	// proceed in the background, and /readyz flips once the scan ends.
	if *journalDir != "" {
		if err := svc.Recover(); err != nil {
			fail(err)
		}
	}

	server := &http.Server{Addr: *addr, Handler: svc.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = server.Shutdown(shutdownCtx)
	}()

	fmt.Printf("qurkd: dataset %s (%d), backend %s, store %s; listening on %s\n",
		data.Name, *n, backendName, storeDesc(*storePath), *addr)
	err = server.ListenAndServe()
	// A signal-driven Shutdown surfaces as ErrServerClosed: drain
	// queries and persist the store before exiting cleanly.
	svc.Close()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail(err)
	}
}

func storeDesc(path string) string {
	if path == "" {
		return "memory"
	}
	return path
}

// buildMarket resolves the -backend flag against the dataset oracle.
func buildMarket(backend string, seed int64, oracle qurk.Oracle, opts *qurk.Options) (string, qurk.Marketplace, error) {
	switch strings.ToLower(backend) {
	case "sim", "":
		return "sim", qurk.NewSimMarket(qurk.DefaultMarketConfig(seed), oracle), nil
	case "mturk-sandbox", "mturk":
		name := "mturk-sandbox"
		if strings.EqualFold(backend, "mturk") {
			name = "mturk"
			opts.MTurk.Endpoint = firstNonEmpty(opts.MTurk.Endpoint, qurk.MTurkProductionEndpoint)
			fmt.Fprintln(os.Stderr, "WARNING: -backend mturk posts HITs that cost REAL dollars and reach real workers.")
		}
		client, err := qurk.NewMTurkClient(qurk.MTurkFromOptions(opts.MTurk))
		if err != nil {
			return "", nil, err
		}
		if balance, err := client.CheckBalance(); err != nil {
			return "", nil, fmt.Errorf("MTurk credential check failed: %w", err)
		} else {
			fmt.Fprintf(os.Stderr, "MTurk endpoint %s, available balance $%s\n", client.Endpoint(), balance)
		}
		return name, client, nil
	default:
		return "", nil, fmt.Errorf("unknown backend %q (want sim, mturk-sandbox, or mturk)", backend)
	}
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qurkd:", err)
	os.Exit(1)
}

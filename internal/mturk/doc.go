// Package mturk is the live crowd backend: a crowd.Marketplace
// implementation that speaks the Amazon Mechanical Turk Requester REST
// API, so the same declarative queries that run against the
// deterministic simulator post real HITs to real workers — the platform
// independence the paper's architecture promises (§1, §2.5: operators
// "compile into HITs posted to Mechanical Turk").
//
// The client renders each hit.Group into HTMLQuestion XML, posts one
// marketplace HIT per hit.HIT via CreateHIT, polls submissions back
// with ListAssignmentsForHIT, decodes QuestionFormAnswers XML into
// hit.Assignment votes, and approves submitted work — all through the
// MTurkRequesterServiceV20170117 AWS-JSON protocol with SigV4 request
// signing, implemented here with no dependencies beyond the standard
// library. Any compatible endpoint works: the production marketplace,
// the requester sandbox (the default), or the in-process FakeServer
// this package ships for recorded-HTTP tests that never touch the
// network. Client.Run is the one posting body: it blocks while it polls,
// and RunAsync is crowd.GoRun over it.
//
// # Timeout policy
//
// A live marketplace introduces an outcome the simulator historically
// had no notion of: a worker accepts an assignment and never submits
// it. The client gives every assignment a deadline
// (Config.AssignmentDuration); assignments still missing when it
// passes are reported per HIT in crowd.RunResult.Expired, with the
// completed subset of votes returned as usual. The streaming executor
// composes this with its retry machinery: expired HITs are re-posted
// with lineage-derived IDs and only the missing assignment count,
// bounded by Options.ExpiredRetries (see internal/exec).
//
// # Determinism contract
//
// Real crowds are not deterministic, so the bit-identical guarantee the
// simulator offers obviously cannot hold here. What the client does
// guarantee — and what keeps the executor's chunk-size invariance
// meaningful — is that HIT identity never depends on chunking: each
// marketplace HIT carries the engine's HIT ID as its
// UniqueRequestToken, so re-posting the same logical HIT (retries,
// crashed re-runs) is idempotent on MTurk's side, and the FakeServer
// derives its worker behavior purely from that token, making recorded
// tests exactly as invariant as simulator runs.
package mturk

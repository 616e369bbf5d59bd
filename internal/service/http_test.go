package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"qurk/internal/answerstore"
)

// startServer runs the service behind a real HTTP listener so the
// chunked rows stream is exercised end to end.
func startServer(t *testing.T, n int, budgets map[string]float64) (*httptest.Server, *Service) {
	t.Helper()
	svc, _ := newTestService(t, n, budgets)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return srv, svc
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", url, err)
		}
	}
	return resp
}

func postQuery(t *testing.T, srv *httptest.Server, body string) (*http.Response, Snapshot) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/queries", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sn Snapshot
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil {
			t.Fatal(err)
		}
	}
	return resp, sn
}

// TestHTTPEndToEnd drives the full query lifecycle over the wire:
// submit, live NDJSON rows stream, status, tenant accounting, and the
// shared store statistics after a cross-tenant cache hit.
func TestHTTPEndToEnd(t *testing.T) {
	srv, _ := startServer(t, 12, nil)

	var health map[string]string
	if resp := getJSON(t, srv.URL+"/healthz", &health); resp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, health)
	}

	resp, sn := postQuery(t, srv,
		fmt.Sprintf(`{"tenant":"alice","query":%q,"options":{"assignments":3}}`, isFemaleQuery))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if sn.ID == "" || sn.Tenant != "alice" {
		t.Fatalf("submit snapshot = %+v", sn)
	}

	// Follow the rows stream to completion: every line but the last is
	// a row with named column values; the last reports the terminal
	// state and the row count.
	streamResp, err := http.Get(srv.URL + "/v1/queries/" + sn.ID + "/rows")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("rows Content-Type = %q", ct)
	}
	var lines []rowLine
	sc := bufio.NewScanner(streamResp.Body)
	for sc.Scan() {
		var line rowLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("rows stream was empty")
	}
	final := lines[len(lines)-1]
	if final.State != StateDone || final.Error != "" {
		t.Fatalf("final stream line = %+v, want done", final)
	}
	if final.Rows != len(lines)-1 {
		t.Fatalf("final line reports %d rows, stream carried %d", final.Rows, len(lines)-1)
	}
	for _, row := range lines[:len(lines)-1] {
		if _, ok := row.Values["name"]; !ok {
			t.Fatalf("row line missing name column: %+v", row)
		}
	}

	var status Snapshot
	if resp := getJSON(t, srv.URL+"/v1/queries/"+sn.ID, &status); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if status.State != StateDone || status.HITs == 0 || status.Dollars <= 0 {
		t.Fatalf("query snapshot = %+v, want done with crowd spend", status)
	}

	var list struct {
		Queries []Snapshot `json:"queries"`
	}
	getJSON(t, srv.URL+"/v1/queries", &list)
	if len(list.Queries) != 1 || list.Queries[0].ID != sn.ID {
		t.Fatalf("query list = %+v", list.Queries)
	}

	// A second tenant asking the same question is served entirely from
	// the shared store: zero HITs, zero spend, same rows.
	resp2, sn2 := postQuery(t, srv, fmt.Sprintf(`{"tenant":"bob","query":%q}`, isFemaleQuery))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit status = %d", resp2.StatusCode)
	}
	streamResp2, err := http.Get(srv.URL + "/v1/queries/" + sn2.ID + "/rows")
	if err != nil {
		t.Fatal(err)
	}
	io2 := new(bytes.Buffer)
	if _, err := io2.ReadFrom(streamResp2.Body); err != nil {
		t.Fatal(err)
	}
	streamResp2.Body.Close()
	var status2 Snapshot
	getJSON(t, srv.URL+"/v1/queries/"+sn2.ID, &status2)
	if status2.State != StateDone || status2.HITs != 0 || status2.Reused == 0 {
		t.Fatalf("cached query snapshot = %+v, want done with 0 HITs and reuse", status2)
	}
	if status2.Rows != status.Rows {
		t.Fatalf("cached query rows %d != original %d", status2.Rows, status.Rows)
	}

	var tenants struct {
		Tenants []TenantSnapshot `json:"tenants"`
	}
	getJSON(t, srv.URL+"/v1/tenants", &tenants)
	if len(tenants.Tenants) != 2 {
		t.Fatalf("tenant list = %+v", tenants.Tenants)
	}
	var alice TenantSnapshot
	if resp := getJSON(t, srv.URL+"/v1/tenants/alice", &alice); resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant status = %d", resp.StatusCode)
	}
	if alice.SpentDollars <= 0 {
		t.Fatalf("alice snapshot = %+v, want spend > 0", alice)
	}
	var bob TenantSnapshot
	getJSON(t, srv.URL+"/v1/tenants/bob", &bob)
	if bob.SpentDollars != 0 {
		t.Fatalf("bob snapshot = %+v, want $0 spend", bob)
	}

	var store struct {
		Enabled bool `json:"enabled"`
		Stats   struct {
			Entries int `json:"entries"`
			Hits    int `json:"hits"`
		} `json:"stats"`
	}
	getJSON(t, srv.URL+"/v1/store", &store)
	if !store.Enabled || store.Stats.Entries == 0 || store.Stats.Hits == 0 {
		t.Fatalf("store stats = %+v, want enabled with answers and hits", store)
	}
}

// TestStoreWriteFailureDegrades: when the answer store can no longer
// write its file, queries keep completing from memory, but the failure
// is visible — GET /v1/store reports it and the service is degraded.
func TestStoreWriteFailureDegrades(t *testing.T) {
	// Every write to /dev/full fails with ENOSPC, as on a full disk.
	store, err := answerstore.Open("/dev/full", answerstore.Policy{})
	if err != nil {
		t.Skipf("no /dev/full to inject write failures: %v", err)
	}
	srv, svc := startServer(t, 8, nil)
	svc.cfg.Answers = store // read per submission, so no query sees the old store
	if st := svc.Status(); st.State != "ok" {
		t.Fatalf("status before any write = %s, want ok", st.State)
	}

	_, sn := postQuery(t, srv, `{"tenant":"alice","query":"`+isFemaleQuery+`"}`)
	q, ok := svc.Get(sn.ID)
	if !ok {
		t.Fatalf("submitted query %q not found", sn.ID)
	}
	if st := waitTerminal(t, q); st != StateDone {
		t.Fatalf("query = %s (%s), want done despite the failing store", st, q.Snapshot().Error)
	}

	var reply struct {
		Stats answerstore.Stats `json:"stats"`
	}
	getJSON(t, srv.URL+"/v1/store", &reply)
	if reply.Stats.Stored == 0 || !strings.Contains(reply.Stats.PersistError, "no space") {
		t.Fatalf("store stats = %+v, want stored answers and an ENOSPC persist_error", reply.Stats)
	}
	var status Status
	getJSON(t, srv.URL+"/v1/status", &status)
	if status.State != "degraded" {
		t.Fatalf("status = %+v, want degraded while the store cannot persist", status)
	}
}

// TestHTTPErrors covers the failure paths: malformed bodies, unknown
// resources, bad option values, and budget rejection as 402.
func TestHTTPErrors(t *testing.T) {
	srv, _ := startServer(t, 8, map[string]float64{"poor": 0.01})

	resp, _ := postQuery(t, srv, `{not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status = %d", resp.StatusCode)
	}
	resp, _ = postQuery(t, srv, `{"tenant":"alice","query":"SELECT FROM nowhere"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query status = %d", resp.StatusCode)
	}
	resp, _ = postQuery(t, srv,
		fmt.Sprintf(`{"tenant":"alice","query":%q,"options":{"sort":"psychic"}}`, isFemaleQuery))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad option status = %d", resp.StatusCode)
	}
	resp, _ = postQuery(t, srv,
		fmt.Sprintf(`{"tenant":"alice","query":%q,"backend":"carrier-pigeon"}`, isFemaleQuery))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad backend status = %d", resp.StatusCode)
	}

	// An estimate over the tenant's budget is a payment error, and the
	// body names the reason.
	resp3, err := http.Post(srv.URL+"/v1/queries", "application/json",
		strings.NewReader(fmt.Sprintf(`{"tenant":"poor","query":%q}`, isFemaleQuery)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusPaymentRequired {
		t.Fatalf("budget rejection status = %d, want 402", resp3.StatusCode)
	}
	var apiErr map[string]string
	if err := json.NewDecoder(resp3.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(apiErr["error"], "budget") {
		t.Fatalf("402 body = %v, want budget error", apiErr)
	}

	for _, url := range []string{"/v1/queries/q9999", "/v1/queries/q9999/rows", "/v1/tenants/nobody"} {
		if resp := getJSON(t, srv.URL+url, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s status = %d, want 404", url, resp.StatusCode)
		}
	}
}

// TestHTTPCancel cancels a running query over the wire and observes
// the cancelled state in the snapshot.
func TestHTTPCancel(t *testing.T) {
	svc, _ := newTestService(t, 8, nil)
	// Swap in a handler-level test over a blocked market is covered by
	// TestCancel; here DELETE on a finished query must stay done.
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	_, sn := postQuery(t, srv, fmt.Sprintf(`{"tenant":"alice","query":%q}`, isFemaleQuery))
	q, _ := svc.Get(sn.ID)
	waitTerminal(t, q)

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/queries/"+sn.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.State != StateDone {
		t.Fatalf("cancel after done flipped state to %s", out.State)
	}
}

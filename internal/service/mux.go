// The per-backend marketplace mux.
package service

import (
	"sync"

	"qurk/internal/crowd"
	"qurk/internal/hit"
)

// Mux is the one entry every query's HIT groups take to a backend.
// Operators across all concurrent queries post through their engines'
// budget gates into the same Mux, which counts the groups and HITs it
// admits and hands each group straight to the backend.
//
// The wrapped backend honors the crowd.Marketplace concurrency contract
// (concurrent RunAsync calls are safe, and results depend on group
// content, never interleaving), so the order in which concurrent
// queries' groups arrive changes observability, not results.
type Mux struct {
	inner crowd.Marketplace

	mu     sync.Mutex
	closed bool
	groups int
	hits   int
}

// NewMux wraps a backend.
func NewMux(inner crowd.Marketplace) *Mux { return &Mux{inner: inner} }

// RunAsync counts one group and posts it without blocking; after Close
// it refuses the group with errMuxClosed.
func (m *Mux) RunAsync(group *hit.Group) <-chan crowd.Async {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		out := make(chan crowd.Async, 1)
		out <- crowd.Async{Err: errMuxClosed}
		return out
	}
	m.groups++
	m.hits += len(group.HITs)
	m.mu.Unlock()
	return m.inner.RunAsync(group)
}

// Run implements crowd.Marketplace by waiting on RunAsync.
func (m *Mux) Run(group *hit.Group) (*crowd.RunResult, error) {
	a := <-m.RunAsync(group)
	return a.Result, a.Err
}

var errMuxClosed = errString("service: marketplace mux is closed")

type errString string

func (e errString) Error() string { return string(e) }

// Stats reports groups and HITs admitted through the mux.
func (m *Mux) Stats() (groups, hits int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.groups, m.hits
}

// Close refuses further groups; groups already admitted complete.
func (m *Mux) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
}

// The per-backend marketplace mux.
package service

import (
	"sync"

	"qurk/internal/crowd"
	"qurk/internal/hit"
)

// Mux funnels every query's HIT chunks for one backend through a
// single dispatch loop. Operators across all concurrent queries post
// through their engines' budget gates into the same Mux, so one
// goroutine per backend owns the post order (admission is serialized
// and counted), while completed groups are awaited concurrently by
// their posters — many queries, one poster loop per marketplace.
//
// The wrapped backend still honors the crowd.Marketplace concurrency
// contract (results depend on group content, never interleaving), so
// serializing admission changes observability, not results.
type Mux struct {
	inner crowd.Marketplace
	reqs  chan muxReq

	mu     sync.Mutex
	closed bool
	done   chan struct{}
	groups int
	hits   int
}

type muxReq struct {
	group *hit.Group
	out   chan crowd.Async
}

// NewMux starts the dispatch loop over a backend.
func NewMux(inner crowd.Marketplace) *Mux {
	m := &Mux{inner: inner, reqs: make(chan muxReq), done: make(chan struct{})}
	go m.dispatch()
	return m
}

// dispatch is the backend's single admission loop: it owns the order
// in which groups reach the marketplace and the posted-work counters.
func (m *Mux) dispatch() {
	for {
		select {
		case req := <-m.reqs:
			m.mu.Lock()
			m.groups++
			m.hits += len(req.group.HITs)
			m.mu.Unlock()
			ch := m.inner.RunAsync(req.group)
			go func(out chan crowd.Async) { out <- <-ch }(req.out)
		case <-m.done:
			return
		}
	}
}

// RunAsync posts one group through the loop without blocking; the loop
// has taken the group, fixing its place in the post order, before
// RunAsync returns.
func (m *Mux) RunAsync(group *hit.Group) <-chan crowd.Async {
	out := make(chan crowd.Async, 1)
	select {
	case m.reqs <- muxReq{group: group, out: out}:
	case <-m.done:
		out <- crowd.Async{Err: errMuxClosed}
	}
	return out
}

// Run implements crowd.Marketplace by waiting on RunAsync.
func (m *Mux) Run(group *hit.Group) (*crowd.RunResult, error) {
	a := <-m.RunAsync(group)
	return a.Result, a.Err
}

var errMuxClosed = errString("service: marketplace mux is closed")

type errString string

func (e errString) Error() string { return string(e) }

// Stats reports groups and HITs admitted through the loop.
func (m *Mux) Stats() (groups, hits int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.groups, m.hits
}

// Close stops the dispatch loop; groups already admitted complete.
func (m *Mux) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.closed {
		m.closed = true
		close(m.done)
	}
}

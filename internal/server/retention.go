package server

import "sync"

// DefaultCacheBytes is the artifact cache bound when Config.CacheBytes is
// unset.
const DefaultCacheBytes = 256 << 20

// ResultBudget is the retained-result byte budget derived from an
// artifact cache bound: 1/16 of it, 16 MiB at the default, so finished
// jobs' solution arrays stay a small fraction of what the cache may hold.
func ResultBudget(cacheBytes int64) int64 { return cacheBytes / 16 }

// ResultRetention bounds the solution bytes finished jobs keep resident.
// Each finished job registers its result arrays; once their total exceeds
// the budget the oldest are dropped — the job's status record stays, its
// result endpoint answers 410 — until the total fits again. The newest
// result is never dropped, so a result larger than the whole budget stays
// retrievable until the next job finishes. Safe for concurrent use.
type ResultRetention struct {
	budget int64

	mu      sync.Mutex
	held    []heldResult // oldest first
	bytes   int64
	evicted uint64
}

type heldResult struct {
	bytes int64
	drop  func()
}

// NewResultRetention returns a retention bounded to budget bytes.
func NewResultRetention(budget int64) *ResultRetention {
	return &ResultRetention{budget: budget}
}

// Retain registers a finished result of the given size. drop releases the
// result's arrays; it runs at most once, after Retain's lock is released,
// when the result is evicted.
func (r *ResultRetention) Retain(bytes int64, drop func()) {
	var victims []func()
	r.mu.Lock()
	r.held = append(r.held, heldResult{bytes: bytes, drop: drop})
	r.bytes += bytes
	for r.bytes > r.budget && len(r.held) > 1 {
		old := r.held[0]
		r.held[0] = heldResult{}
		r.held = r.held[1:]
		r.bytes -= old.bytes
		r.evicted++
		victims = append(victims, old.drop)
	}
	r.mu.Unlock()
	for _, drop := range victims {
		drop()
	}
}

// Stats reports the bytes currently retained and the results evicted so
// far.
func (r *ResultRetention) Stats() (bytes int64, evicted uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes, r.evicted
}

package netsim

import (
	"sync"

	"dragonvar/internal/routing"
)

// PathCache is a concurrency-safe candidate-path cache: flows between the
// same router pair recur every step, and path sampling (which seeds a
// dedicated RNG stream per pair) is the dominant cost of resolving one.
// Every Network holds one — its own from New, or one SharePathCache
// attaches in its place.
//
// Entries are keyed by dead-link set, then router pair. Candidate paths
// are a pure function of (network seed, Config, router pair, dead-link
// set) — capacity derating without death never changes candidates (only
// dead links are avoided during resolution) — so keying by the dead set
// makes fault-epoch invalidation edge-scoped: a health change that kills
// no links keeps the clean entries, and returning to a previously seen
// dead set reuses every path resolved under it.
//
// Sharing is only sound between Networks whose candidate resolution is
// bit-identical: same topology, same Config, and an RNG stream split from
// the same seed with the same label (the campaign's per-worker
// simulators). Each entry is resolved once: the first caller to miss it
// marks it in flight and resolves it, and a caller that finds it in flight
// waits for that result instead of sampling the pair again. Entries are
// immutable once resolved.
type PathCache struct {
	mu sync.RWMutex
	m  map[uint64]map[uint64]*pathEntry // dead-set signature → pair → entry
}

// pathEntry is one cached candidate set; done is held from the entry's
// creation until its paths are stored.
type pathEntry struct {
	done  sync.WaitGroup
	paths []routing.Path
}

// NewPathCache creates an empty path cache.
func NewPathCache() *PathCache {
	return &PathCache{m: make(map[uint64]map[uint64]*pathEntry)}
}

// resolve returns the candidate set for a pair under the dead-link set
// with signature sig. The caller that finds no entry calls fill and stores
// its result (resolved is then true); every other caller gets that result,
// waiting for it while it is in flight.
func (c *PathCache) resolve(sig, pair uint64, fill func() []routing.Path) (paths []routing.Path, resolved bool) {
	c.mu.RLock()
	e := c.m[sig][pair]
	c.mu.RUnlock()
	if e == nil {
		c.mu.Lock()
		epoch, ok := c.m[sig]
		if !ok {
			epoch = make(map[uint64]*pathEntry)
			c.m[sig] = epoch
		}
		if e = epoch[pair]; e == nil {
			e = &pathEntry{}
			e.done.Add(1)
			epoch[pair] = e
			c.mu.Unlock()
			e.paths = fill()
			e.done.Done()
			return e.paths, true
		}
		c.mu.Unlock()
	}
	e.done.Wait()
	return e.paths, false
}

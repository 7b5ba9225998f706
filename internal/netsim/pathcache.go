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
// simulators). Entries are immutable once stored and first-write-wins;
// since every writer stores the same value, the winner is irrelevant and
// determinism is preserved.
type PathCache struct {
	mu sync.RWMutex
	m  map[uint64]map[uint64][]routing.Path // dead-set signature → pair → paths
}

// NewPathCache creates an empty path cache.
func NewPathCache() *PathCache {
	return &PathCache{m: make(map[uint64]map[uint64][]routing.Path)}
}

// lookup returns the cached candidate set for a pair under the dead-link
// set with signature sig.
func (c *PathCache) lookup(sig, pair uint64) ([]routing.Path, bool) {
	c.mu.RLock()
	p, ok := c.m[sig][pair]
	c.mu.RUnlock()
	return p, ok
}

// store publishes a resolved candidate set; the first writer wins.
func (c *PathCache) store(sig, pair uint64, paths []routing.Path) {
	c.mu.Lock()
	epoch, ok := c.m[sig]
	if !ok {
		epoch = make(map[uint64][]routing.Path)
		c.m[sig] = epoch
	}
	if _, ok := epoch[pair]; !ok {
		epoch[pair] = paths
	}
	c.mu.Unlock()
}

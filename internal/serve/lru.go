package serve

import (
	"container/list"
	"math"
	"sync"
)

// windowHash fingerprints a forecast input window (FNV-1a over the
// float64 bits, row by row). Two byte-identical windows always collide
// onto the same key — which is the point: repeated queries for the same
// network state hit the cache instead of the model.
func windowHash(steps [][]float64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, row := range steps {
		for _, v := range row {
			bits := math.Float64bits(v)
			for s := 0; s < 64; s += 8 {
				h ^= (bits >> s) & 0xff
				h *= prime
			}
		}
	}
	return h
}

// lru is a fixed-capacity, mutex-guarded LRU map from window hashes to
// predictions. Predictions are tiny (one float64), so the capacity bounds
// entry count, not bytes.
type lru struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[uint64]*list.Element
}

type lruEntry struct {
	key uint64
	val float64
}

// cacheEntries is the prediction cache's capacity.
const cacheEntries = 4096

func newLRU() *lru {
	return &lru{cap: cacheEntries, order: list.New(), items: make(map[uint64]*list.Element, cacheEntries)}
}

func (c *lru) get(key uint64) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return 0, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *lru) put(key uint64, val float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, val: val})
	if c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*lruEntry).key)
	}
}

func (c *lru) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

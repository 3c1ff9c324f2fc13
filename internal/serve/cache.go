package serve

import (
	"context"
	"sync"

	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/stack"
)

// tenantKey identifies a tenant: requests on the same scheme at the
// same grid share a stack content (perf.BasisKey is a function of these
// two under the default configuration), so they share one cache entry.
type tenantKey struct {
	scheme stack.SchemeKind
	grid   int
}

// Entry is one cached tenant's built artifacts: the assembled stack and
// the evaluator that owns its solver (multigrid hierarchy, CG scratch)
// and — once a fast-path request has touched it — its Green's basis.
// Evicting an Entry drops the whole chain at once; in-flight requests
// holding the pointer finish safely on it.
type Entry struct {
	// ContentKey is the perf.BasisKey content hash the entry is cached
	// under: everything the thermal operator and source set depend on.
	ContentKey string
	Stack      *stack.Stack
	Ev         *perf.Evaluator
}

// cacheCall is one singleflight build: the builder closes done once
// ent/err are final, everyone else waits. A failed build never enters
// the entry map, so a later request retries instead of replaying the
// cached error.
type cacheCall struct {
	done chan struct{}
	ent  *Entry
	err  error
}

// artifactCache is the keyed LRU of built artifacts. Completed entries
// are keyed by perf.BasisKey content hashes; in-flight builds are
// deduplicated per tenant (scheme × grid), and a side memo maps tenant
// to content key so hits never rebuild a stack just to hash it.
// Capacity 0 disables reuse entirely — every request builds fresh (the
// load harness's cold-path mode).
type artifactCache struct {
	cap   int
	build func(tk tenantKey) (*Entry, error)

	mu      sync.Mutex
	entries map[string]*cacheCall
	// order is the LRU list, most recently used first. Capacities are
	// single digits (one entry per scheme×grid in use), so a slice
	// beats a linked list.
	order []string
	// building holds in-flight builds, singleflight per tenant.
	building map[tenantKey]*cacheCall
	// tenants memoises tenant → content key. It is never evicted: a
	// few dozen bytes per tenant ever seen, and keeping it means an
	// evicted tenant's return trip costs one rebuild, not a rehash.
	tenants map[tenantKey]string

	m *metricsSet
}

func newArtifactCache(capacity int, m *metricsSet, build func(tk tenantKey) (*Entry, error)) *artifactCache {
	return &artifactCache{
		cap:      capacity,
		build:    build,
		entries:  make(map[string]*cacheCall),
		building: make(map[tenantKey]*cacheCall),
		tenants:  make(map[tenantKey]string),
		m:        m,
	}
}

// wait blocks until the call resolves (or ctx ends) and hands back its
// entry as a cache hit.
func (c *artifactCache) wait(ctx context.Context, call *cacheCall) (*Entry, bool, error) {
	select {
	case <-call.done:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	if call.err != nil {
		return nil, false, call.err
	}
	c.m.cacheHits.Inc()
	return call.ent, true, nil
}

// get returns the tenant's entry, building it (singleflight) on miss.
// hit reports whether the artifacts came from cache — false only for
// the goroutine that paid for the build; waiters that joined an
// in-flight build count as hits (they skipped the work).
func (c *artifactCache) get(ctx context.Context, tk tenantKey) (ent *Entry, hit bool, err error) {
	if c.cap <= 0 {
		c.m.cacheMisses.Inc()
		ent, err := c.build(tk)
		return ent, false, err
	}

	c.mu.Lock()
	if ck, ok := c.tenants[tk]; ok {
		if call, ok := c.entries[ck]; ok {
			c.touch(ck)
			c.mu.Unlock()
			return c.wait(ctx, call)
		}
	}
	if call, ok := c.building[tk]; ok {
		c.mu.Unlock()
		return c.wait(ctx, call)
	}
	call := &cacheCall{done: make(chan struct{})}
	c.building[tk] = call
	c.mu.Unlock()

	c.m.cacheMisses.Inc()
	call.ent, call.err = c.build(tk)

	c.mu.Lock()
	delete(c.building, tk)
	if call.err == nil {
		ck := call.ent.ContentKey
		c.tenants[tk] = ck
		if _, ok := c.entries[ck]; !ok {
			c.entries[ck] = call
			c.order = append([]string{ck}, c.order...)
			c.evictOver()
		}
	}
	c.m.cacheEntries.Set(float64(len(c.entries)))
	c.mu.Unlock()
	close(call.done)
	return call.ent, false, call.err
}

// touch moves key to the front of the LRU order. Caller holds c.mu.
func (c *artifactCache) touch(key string) {
	for i, k := range c.order {
		if k == key {
			copy(c.order[1:i+1], c.order[:i])
			c.order[0] = key
			return
		}
	}
}

// evictOver drops least-recently-used entries beyond capacity. Caller
// holds c.mu.
func (c *artifactCache) evictOver() {
	for len(c.order) > c.cap {
		victim := c.order[len(c.order)-1]
		c.order = c.order[:len(c.order)-1]
		delete(c.entries, victim)
		c.m.cacheEvictions.Inc()
	}
}

// len reports the number of completed cached entries.
func (c *artifactCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

package core

// GeometryCache is the session layer's warm per-prime state: the
// immutable, reusable pieces of engine geometry — NTT-friendly prime
// selections and per-prime Reed–Solomon codes keyed by (q, e, d) — are
// computed once and shared by every run a Cluster executes. One-shot
// core.Run calls (no cache) recompute them per run, which is exactly
// the facade overhead the Cluster API exists to amortize.

import (
	"fmt"
	"sync"

	"camelot/internal/ff"
	"camelot/internal/poly"
	"camelot/internal/rs"
)

// GeometryCache memoizes prime selection and Reed–Solomon code
// construction across runs. All methods are safe for concurrent use and
// work on a nil receiver (falling through to direct computation), so
// the engine can consult Options.Geometry unconditionally.
//
// Memory stays bounded for long-lived clusters sweeping many distinct
// problem shapes: prime selections are capped by count, codes by the
// bytes they hold, and a map that would pass its cap is dropped whole and
// rebuilt — an epoch flush rather than LRU, because the steady state of
// a serving cluster is a handful of hot geometries that immediately
// repopulate, and a flush is contention-free.
type GeometryCache struct {
	mu         sync.Mutex
	primes     map[primesKey][]uint64
	codes      map[codeKey]*rs.Code
	codeBytes  int // summed Footprint of codes
	codeBudget int // flush threshold for codeBytes; geometryCodeBudget outside tests
}

// maxGeometryEntries caps the prime-selection memo; an entry is a few
// primes.
const maxGeometryEntries = 256

// geometryCodeBudget caps the bytes of cached codes. A code for a
// length-e word holds its points' subproduct tree, the tree's node
// spectra and the interpolation weights, O(e log e) field elements —
// rs.Code.Footprint reads 470 KB at e=1535 and 46 MB at e=100 000 — so a
// count of codes bounds nothing; the budget holds over a hundred codes of
// the first size and one of the second. A code larger than the whole
// budget is built for its run and not cached.
const geometryCodeBudget = 64 << 20

type primesKey struct {
	count int
	min   uint64
	order int
}

type codeKey struct {
	q    uint64
	e, d int
}

// NewGeometryCache returns an empty cache.
func NewGeometryCache() *GeometryCache {
	return &GeometryCache{
		primes:     make(map[primesKey][]uint64),
		codes:      make(map[codeKey]*rs.Code),
		codeBudget: geometryCodeBudget,
	}
}

// choosePrimes is ChoosePrimes with memoization. The returned slice is
// owned by the cache; callers copy before publishing it.
func (gc *GeometryCache) choosePrimes(count int, min uint64, order int) ([]uint64, error) {
	if gc == nil {
		return ChoosePrimes(count, min, order)
	}
	key := primesKey{count: count, min: min, order: order}
	gc.mu.Lock()
	if ps, ok := gc.primes[key]; ok {
		gc.mu.Unlock()
		return ps, nil
	}
	gc.mu.Unlock()
	// Compute outside the lock: prime scans are the expensive part and
	// racing first builds are harmless (last write wins with an equal
	// value — the scan is deterministic).
	ps, err := ChoosePrimes(count, min, order)
	if err != nil {
		return nil, err
	}
	gc.mu.Lock()
	if len(gc.primes) >= maxGeometryEntries {
		gc.primes = make(map[primesKey][]uint64)
	}
	gc.primes[key] = ps
	gc.mu.Unlock()
	return ps, nil
}

// code returns the Reed–Solomon code for consecutive points 0..e-1 and
// degree bound d over GF(q), building and caching it on first use.
// rs.Code is immutable after construction and safe for concurrent
// decoders, which is what makes cross-run sharing sound.
func (gc *GeometryCache) code(q uint64, e, d int) (*rs.Code, error) {
	if gc == nil {
		return buildCode(q, e, d)
	}
	key := codeKey{q: q, e: e, d: d}
	gc.mu.Lock()
	if c, ok := gc.codes[key]; ok {
		gc.mu.Unlock()
		return c, nil
	}
	gc.mu.Unlock()
	c, err := buildCode(q, e, d)
	if err != nil {
		return nil, err
	}
	size := c.Footprint()
	if size > gc.codeBudget {
		return c, nil
	}
	gc.mu.Lock()
	defer gc.mu.Unlock()
	if prev, ok := gc.codes[key]; ok {
		return prev, nil // a racing first build got there; keep one copy
	}
	if gc.codeBytes+size > gc.codeBudget {
		gc.codes = make(map[codeKey]*rs.Code)
		gc.codeBytes = 0
	}
	gc.codes[key] = c
	gc.codeBytes += size
	return c, nil
}

func buildCode(q uint64, e, d int) (*rs.Code, error) {
	f, err := ff.New(q)
	if err != nil {
		return nil, fmt.Errorf("building field mod %d: %w", q, err)
	}
	code, err := rs.New(poly.NewRing(f), rs.ConsecutivePoints(e), d)
	if err != nil {
		return nil, fmt.Errorf("building code mod %d: %w", q, err)
	}
	return code, nil
}

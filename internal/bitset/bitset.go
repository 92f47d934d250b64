// Package bitset provides a compact fixed-capacity bit set used for graph
// adjacency rows and subset enumeration throughout the exponential-time
// Camelot instantiations (independent sets, set families, vertex splits).
package bitset

import "math/bits"

// Set is a bit set over a fixed universe. The zero value is an empty set
// of capacity zero; construct with New for a given capacity.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set over a universe of n elements.
func New(n int) Set {
	return Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the universe size.
func (s Set) Len() int { return s.n }

// Add inserts element i.
func (s Set) Add(i int) { s.words[i/64] |= 1 << uint(i%64) }

// Remove deletes element i.
func (s Set) Remove(i int) { s.words[i/64] &^= 1 << uint(i%64) }

// Contains reports whether i is in the set.
func (s Set) Contains(i int) bool { return s.words[i/64]&(1<<uint(i%64)) != 0 }

// Count returns the cardinality.
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy.
func (s Set) Clone() Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w, n: s.n}
}

// IntersectsWith reports whether s and t share an element.
func (s Set) IntersectsWith(t Set) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// ContainsAll reports whether t ⊆ s.
func (s Set) ContainsAll(t Set) bool {
	for i, w := range t.words {
		if i >= len(s.words) {
			if w != 0 {
				return false
			}
			continue
		}
		if w&^s.words[i] != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every element in ascending order.
func (s Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &= w - 1
		}
	}
}

// Elements returns the members in ascending order.
func (s Set) Elements() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// Word returns the w-th 64-bit word (for n <= 64 callers use Word(0)).
func (s Set) Word(w int) uint64 {
	if w >= len(s.words) {
		return 0
	}
	return s.words[w]
}

package core

// Error correction (paper §1.3 step 2): every node runs the Gao decoder
// over the word it received, recovering the true proof and identifying
// the corrupted shares' owners. One process holds every node's view
// here, and the decoder is a deterministic function of the word — so
// each view is decoded, a word shared by several views once, and the
// words are checked for agreement. Faults were applied by the faulty
// nodes to the messages they sent (see adversary.go); this stage reads
// only what arrived and never asks which nodes were faulty.

import (
	"slices"
	"sort"
)

// receivedWord is one distinct word of one (prime, coordinate), with the
// nodes whose views are exactly it. msg, corrected and locs are what the
// word's one decode recovered; every recipient of the group reads them,
// none writes.
type receivedWord struct {
	prime, coord int // indices into the run's primes and coordinates
	recipients   []int
	word         []uint64

	msg, corrected []uint64
	locs           []int
}

// receivedWords assembles every node's view of one (prime, coordinate)
// from the gathered messages and groups the nodes whose words are
// element-wise equal. When no message holds per-recipient views, every
// node received the same broadcasts and the one word is assembled once,
// as node 0's. Owners whose messages never arrived appear in no message,
// so their slots stay zero in every word: erased positions cannot tell
// two words apart.
func (en *engine) receivedWords(pi, c int) []*receivedWord {
	views := 1
	if slices.ContainsFunc(en.shares, func(m NodeShares) bool { return m.Views != nil }) {
		views = en.k
	}
	var words []*receivedWord
	var word []uint64
	for r := range views {
		if word == nil {
			word = make([]uint64, en.e)
		}
		for _, m := range en.shares {
			copy(word[m.Lo:m.Hi], m.View(r)[pi][c])
		}
		same := slices.IndexFunc(words, func(g *receivedWord) bool { return slices.Equal(g.word, word) })
		if same >= 0 {
			words[same].recipients = append(words[same].recipients, r)
			continue
		}
		words = append(words, &receivedWord{prime: pi, coord: c, recipients: []int{r}, word: word})
		word = nil
	}
	return words
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

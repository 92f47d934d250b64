package core

// Error correction (paper §1.3 step 2): every honest node runs the Gao
// decoder over the word it received, recovering the true proof and
// identifying the corrupted shares' owners. One process holds every
// recipient's word here, and the decoder is a deterministic function of
// the word — so words are assembled per recipient, decoded once per
// distinct word, and checked for agreement across words.

import (
	"slices"
	"sort"
)

// receivedWord is one distinct word of one (prime, coordinate), with the
// honest recipients that all received exactly it. msg, corrected and
// locs are what the word's one decode recovered; every recipient of the
// group reads them, none writes.
type receivedWord struct {
	prime, coord int // indices into the run's primes and coordinates
	recipients   []int
	word         []uint64

	msg, corrected []uint64
	locs           []int
}

// receivedWords assembles the word each honest recipient received for
// one (prime, coordinate) — shares from each delivered sender pass
// through the adversary, which may show every recipient something else —
// and groups the recipients whose words are element-wise equal. The
// words themselves are compared; what kind of adversary produced them is
// never asked. Senders whose broadcasts the transport lost appear in no
// share message, so their slots are never written and stay zero in every
// word: erased positions cannot tell two words apart.
func (en *engine) receivedWords(pi, c int, honest []int) []*receivedWord {
	q := en.primes[pi]
	adv := en.opts.Adversary
	var words []*receivedWord
	var word []uint64
	for _, recipient := range honest {
		if word == nil {
			word = make([]uint64, en.e)
		}
		for _, sender := range en.shares {
			// The adversary controls *nodes*, and what it corrupts is
			// what a node computes and sends: keyed by the message's
			// physical origin, so a byzantine survivor's repair of a
			// dead node's range arrives corrupted, while an honest
			// sponsor's repair of the range of a byzantine node whose
			// broadcast the network lost arrives clean.
			origin, vals := sender.Origin(), sender.Vals[pi][c]
			for x := sender.Lo; x < sender.Hi; x++ {
				word[x] = adv.Transform(origin, recipient, q, c, x, vals[x-sender.Lo])
			}
		}
		same := slices.IndexFunc(words, func(g *receivedWord) bool { return slices.Equal(g.word, word) })
		if same >= 0 {
			words[same].recipients = append(words[same].recipients, recipient)
			continue
		}
		words = append(words, &receivedWord{prime: pi, coord: c, recipients: []int{recipient}, word: word})
		word = nil
	}
	return words
}

func honestNodes(k int, adv Adversary) []int {
	bad := make(map[int]bool)
	for _, id := range adv.CorruptNodes() {
		bad[id] = true
	}
	out := make([]int, 0, k)
	for id := 0; id < k; id++ {
		if !bad[id] {
			out = append(out, id)
		}
	}
	return out
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

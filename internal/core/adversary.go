package core

// The fault schedule of a run is one record, applied by the faulty node
// to its own outgoing message and nowhere else. A byzantine node can
// only send bad values, and a crashed node or a bad link can only lose,
// repeat or hold a message — so content faults change what a message
// says before it leaves, delivery faults decide whether and when it
// arrives, and the decoder downstream reads words without ever asking
// which nodes were faulty (paper §1.3: every node decodes what it
// received). The engine applies the record to the messages its pool
// sends; a remote worker applies the one its Assign manifest carries,
// as the logical node the manifest names.

import (
	"fmt"
	"slices"
	"time"
)

// Adversary is a run's fault schedule, Lady Morgana's and the network's
// alike. The zero value is an honest run on a perfect network. Every
// decision is a pure function of (Seed, sending node, share), never of
// the interleaving of sends, so a run's faults are reproducible.
type Adversary struct {
	// Seed drives the liars' garbage and every per-message fate draw.
	Seed uint64
	// Liars send the same garbage to every recipient in place of their
	// shares.
	Liars []int
	// Equivocators send every recipient its own garbage — full byzantine
	// equivocation (paper footnote 7): one message holding one view per
	// recipient.
	Equivocators []int
	// DropNodes are the nodes whose broadcasts are always lost: the one
	// crash model. A crashed node costs one erasure per point it holds,
	// and the run names it in Report.MissingNodes, never among the
	// suspects.
	DropNodes []int
	// DropRate is the probability a node's broadcast is lost.
	DropRate float64
	// DupRate is the probability a surviving broadcast is delivered
	// twice.
	DupRate float64
	// DelayRate is the probability a surviving broadcast is held for a
	// fate-determined duration in (0, MaxDelay] before delivery.
	DelayRate float64
	// MaxDelay bounds the injected delay; 0 disables delays.
	MaxDelay time.Duration
}

// CorruptNodes lists the byzantine node ids — the liars and the
// equivocators, ascending — for reporting. Dropped nodes are delivery
// faults, not byzantine.
func (a Adversary) CorruptNodes() []int {
	ids := slices.Concat(a.Liars, a.Equivocators)
	slices.Sort(ids)
	return ids
}

// Validate refuses, wrapping ErrInvalidOptions, a record that cannot
// describe a run of k nodes: a node id outside [0, k), a node named
// twice (two roles, or one role twice), a rate outside [0, 1] or a
// negative MaxDelay.
func (a Adversary) Validate(k int) error {
	named := map[int]bool{}
	for _, ids := range [][]int{a.Liars, a.Equivocators, a.DropNodes} {
		for _, id := range ids {
			if id < 0 || id >= k {
				return fmt.Errorf("%w: fault schedule names node %d, but the run has nodes 0..%d", ErrInvalidOptions, id, k-1)
			}
			if named[id] {
				return fmt.Errorf("%w: fault schedule names node %d twice: a node has one role", ErrInvalidOptions, id)
			}
			named[id] = true
		}
	}
	for _, r := range []struct {
		name string
		v    float64
	}{{"DropRate", a.DropRate}, {"DupRate", a.DupRate}, {"DelayRate", a.DelayRate}} {
		if !(r.v >= 0 && r.v <= 1) {
			return fmt.Errorf("%w: %s is a probability: want 0..1, got %g", ErrInvalidOptions, r.name, r.v)
		}
	}
	if a.MaxDelay < 0 {
		return fmt.Errorf("%w: MaxDelay must be >= 0, got %v", ErrInvalidOptions, a.MaxDelay)
	}
	return nil
}

// Apply is what the record makes node m.Origin() do with its outgoing
// message m in a run of k nodes over primes (in m.Vals order). Content
// comes first: a liar overwrites m.Vals with garbage, and an
// equivocator replaces them with m.Views, one garbage view per
// recipient. Then fate: copies is how many times the network delivers
// the message (0: lost), after delay. A repair round's message
// originates from its sponsor, so a dropped owner's range re-sent by a
// survivor arrives, and a lying sponsor's repair arrives corrupted.
func (a Adversary) Apply(m *NodeShares, primes []uint64, k int) (copies int, delay time.Duration) {
	origin := m.Origin()
	switch {
	case slices.Contains(a.Liars, origin):
		for pi, q := range primes {
			for c, vals := range m.Vals[pi] {
				for i, v := range vals {
					vals[i] = a.garble(q, origin, c, m.Lo+i, 0, v)
				}
			}
		}
	case slices.Contains(a.Equivocators, origin):
		m.Views = make([][][][]uint64, k)
		for r := range m.Views {
			view := make([][][]uint64, len(primes))
			for pi, q := range primes {
				view[pi] = make([][]uint64, len(m.Vals[pi]))
				for c, vals := range m.Vals[pi] {
					lie := make([]uint64, len(vals))
					for i, v := range vals {
						lie[i] = a.garble(q, origin, c, m.Lo+i, uint64(r)+1, v)
					}
					view[pi][c] = lie
				}
			}
			m.Views[r] = view
		}
		m.Vals = nil
	}
	return a.Fate(origin)
}

// garble is the garbage node sender sends for the share (q, coord,
// point) whose true value is v — to every recipient when view is 0, to
// recipient view−1 otherwise — never v itself.
func (a Adversary) garble(q uint64, sender, coord, point int, view, v uint64) uint64 {
	g := garbage(a.Seed, uint64(sender), q, uint64(coord), uint64(point), view) % q
	if g == v {
		g = (g + 1) % q
	}
	return g
}

// Fate decides what the network does to node id's broadcast,
// deterministic in (Seed, id). It is not re-drawn per round, which keeps
// loss patterns pure in (Seed, link) and repair outcomes independent of
// the schedule. It reads nothing of the message, so a sender learns
// before evaluating whether anything it sends will arrive.
func (a Adversary) Fate(id int) (copies int, delay time.Duration) {
	if slices.Contains(a.DropNodes, id) || chance(garbage(a.Seed, uint64(id), 1)) < a.DropRate {
		return 0, 0
	}
	copies = 1
	if chance(garbage(a.Seed, uint64(id), 2)) < a.DupRate {
		copies = 2
	}
	if a.MaxDelay > 0 && chance(garbage(a.Seed, uint64(id), 3)) < a.DelayRate {
		delay = 1 + time.Duration(garbage(a.Seed, uint64(id), 4)%uint64(a.MaxDelay))
	}
	return copies, delay
}

// chance maps a hash draw to [0, 1).
func chance(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// garbage hashes the share coordinates into a deterministic 64-bit
// value: 64-bit FNV-1a over the parts' little-endian bytes, inlined
// because a faulty node calls it for every share it sends and
// hash/fnv's Hash64 is a heap allocation per call.
func garbage(parts ...uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range parts {
		for shift := 0; shift < 64; shift += 8 {
			h ^= p >> shift & 0xff
			h *= 1099511628211
		}
	}
	return h
}

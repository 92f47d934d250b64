package core

// Adversary models Lady Morgana: it may tamper with shares in flight
// from a byzantine sender to any recipient. Honest nodes' shares are
// never touched. Implementations must be deterministic so runs are
// reproducible.
type Adversary interface {
	// Transform returns the (possibly corrupted) value the recipient
	// receives for the given share. Whether a share arrives at all is the
	// transport's business, not the adversary's: a crashed node is a
	// delivery fault (LossyConfig.DropNodes), decoded as erasures.
	Transform(sender, recipient int, prime uint64, coord, point int, value uint64) uint64
	// CorruptNodes lists the byzantine node ids, for reporting.
	CorruptNodes() []int
}

// NoAdversary delivers every share unmodified.
type NoAdversary struct{}

var _ Adversary = NoAdversary{}

// Transform implements Adversary.
func (NoAdversary) Transform(_, _ int, _ uint64, _, _ int, value uint64) uint64 {
	return value
}

// CorruptNodes implements Adversary.
func (NoAdversary) CorruptNodes() []int { return nil }

// LyingNodes replaces every share from the listed nodes with
// deterministic garbage — the same garbage for every recipient (a
// consistent liar).
type LyingNodes struct {
	// IDs are the byzantine node identifiers.
	IDs []int
	// Salt varies the garbage stream between runs.
	Salt uint64
	set  map[int]bool
}

var _ Adversary = (*LyingNodes)(nil)

// NewLyingNodes returns an adversary whose listed nodes broadcast
// pseudo-random garbage.
func NewLyingNodes(salt uint64, ids ...int) *LyingNodes {
	l := &LyingNodes{IDs: ids, Salt: salt, set: make(map[int]bool, len(ids))}
	for _, id := range ids {
		l.set[id] = true
	}
	return l
}

// Transform implements Adversary.
func (l *LyingNodes) Transform(sender, _ int, prime uint64, coord, point int, value uint64) uint64 {
	if !l.set[sender] {
		return value
	}
	g := garbage(l.Salt, uint64(sender), prime, uint64(coord), uint64(point), 0)
	// Guarantee the share is actually wrong.
	v := g % prime
	if v == value {
		v = (v + 1) % prime
	}
	return v
}

// CorruptNodes implements Adversary.
func (l *LyingNodes) CorruptNodes() []int { return l.IDs }

// EquivocatingNodes send *different* garbage to different recipients —
// full byzantine equivocation. Per paper footnote 7, decoding still
// succeeds at every honest node because each received word independently
// lies within the decoding radius.
type EquivocatingNodes struct {
	// IDs are the byzantine node identifiers.
	IDs []int
	// Salt varies the garbage stream between runs.
	Salt uint64
	set  map[int]bool
}

var _ Adversary = (*EquivocatingNodes)(nil)

// NewEquivocatingNodes returns an adversary whose listed nodes equivocate.
func NewEquivocatingNodes(salt uint64, ids ...int) *EquivocatingNodes {
	e := &EquivocatingNodes{IDs: ids, Salt: salt, set: make(map[int]bool, len(ids))}
	for _, id := range ids {
		e.set[id] = true
	}
	return e
}

// Transform implements Adversary.
func (e *EquivocatingNodes) Transform(sender, recipient int, prime uint64, coord, point int, value uint64) uint64 {
	if !e.set[sender] {
		return value
	}
	g := garbage(e.Salt, uint64(sender), prime, uint64(coord), uint64(point), uint64(recipient)+1)
	v := g % prime
	if v == value {
		v = (v + 1) % prime
	}
	return v
}

// CorruptNodes implements Adversary.
func (e *EquivocatingNodes) CorruptNodes() []int { return e.IDs }

// garbage hashes the share coordinates into a deterministic 64-bit
// value: 64-bit FNV-1a over the parts' little-endian bytes, inlined
// because word assembly calls it for every lying share of every
// recipient and hash/fnv's Hash64 is a heap allocation per call.
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

package core

// Run observation: the engine reports coarse progress — stage
// transitions, evaluation units completed, live suspect counts — to an
// Options.Observer. The session layer's Job turns these callbacks into
// an inspectable Status; the hooks are deliberately cheap (a few atomic
// adds per chunk) so observation never perturbs the run.

// Stage identifies a protocol phase for progress observation.
type Stage int32

const (
	// StageQueued is the pre-run state (a submitted job not yet started).
	StageQueued Stage = iota
	// StagePrepare is protocol step 1: distributed encoded evaluation.
	StagePrepare
	// StageDecode is protocol step 2: per-node error correction.
	StageDecode
	// StageVerify is protocol step 3: randomized verification.
	StageVerify
	// StageDone is the terminal state (success or failure).
	StageDone
)

// String returns the stage name.
func (s Stage) String() string {
	switch s {
	case StageQueued:
		return "queued"
	case StagePrepare:
		return "prepare"
	case StageDecode:
		return "decode"
	case StageVerify:
		return "verify"
	case StageDone:
		return "done"
	}
	return "unknown"
}

// Observer receives engine progress callbacks. Implementations must be
// safe for concurrent calls: PointsDone and SuspectsFound arrive from
// many pool workers at once. All methods must be fast — they run on the
// engine's hot paths.
type Observer interface {
	// Geometry announces the resolved run shape before the first stage:
	// the total number of (point, prime) evaluation units the prepare
	// stage will compute, and the logical node count K.
	Geometry(points, nodes int)
	// StageStart marks a protocol stage transition.
	StageStart(s Stage)
	// PointsDone reports delta newly completed evaluation units.
	PointsDone(delta int)
	// SuspectsFound reports the current size of the union of suspect
	// node sets across the decodes that have finished so far.
	SuspectsFound(count int)
	// DeliveryFaults reports how many nodes' broadcasts never arrived,
	// once, when the prepare stage's gather resolves. Delivery faults
	// are a transport failure axis distinct from the content faults
	// SuspectsFound tracks: a missing node is erased, not suspected.
	DeliveryFaults(count int)
	// RepairRound announces the start of a self-healing gather round
	// (round counts from 1): the decode stage found the erasures beyond
	// budget and the listed nodes' point ranges are being re-assigned
	// to surviving nodes. The slice is the callback's to keep.
	RepairRound(round int, reassigned []int)
}

// nopObserver is the default when Options.Observer is nil.
type nopObserver struct{}

func (nopObserver) Geometry(int, int)      {}
func (nopObserver) StageStart(Stage)       {}
func (nopObserver) PointsDone(int)         {}
func (nopObserver) SuspectsFound(int)      {}
func (nopObserver) DeliveryFaults(int)     {}
func (nopObserver) RepairRound(int, []int) {}

package core

// Run progress: the engine writes a run's live record — its stage, the
// evaluation units done, the live suspect, delivery-fault and
// repair-round counts — straight into a Progress, a few atomic stores
// per chunk and per decode, so reading it never perturbs the run. The
// session layer's job status is a Snapshot plus the job's state.

import "sync/atomic"

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

// Progress is one run's live record. The engine it is handed to
// (Options.Progress) is its only writer, with the run's nodes counting
// evaluation units through it; Snapshot may be called from any
// goroutine while the run goes on. The zero value reads StageQueued.
type Progress struct {
	stage, suspects, deliveryFaults, repairRounds atomic.Int32
	pointsDone, pointsTotal                       atomic.Int64
}

// ProgressSnapshot is a point-in-time reading of a Progress.
type ProgressSnapshot struct {
	// Stage is the protocol stage the run is in (StageQueued before the
	// engine starts, StageDone once it has finished either way).
	Stage Stage
	// PointsDone / PointsTotal track the prepare stage's evaluation
	// grid in (point, prime) units. PointsTotal is 0 until the engine
	// has resolved the run geometry. A repair round re-evaluates ranges
	// whose first evaluation already counted, so PointsDone is clamped
	// at PointsTotal.
	PointsDone, PointsTotal int
	// Suspects is the largest size the union of suspect node sets has
	// reached across the decodes finished so far.
	Suspects int
	// DeliveryFaults is the number of nodes whose share broadcasts the
	// first gather never received — transport losses, decoded as erasures
	// or recovered by repair, reported apart from the content-fault
	// Suspects. 0 until the prepare stage's gather resolves.
	DeliveryFaults int
	// RepairRounds is the number of self-healing gather rounds started
	// so far (0 when repair never triggered).
	RepairRounds int
}

// addPoints counts units (point, prime) evaluations done.
func (p *Progress) addPoints(units int) { p.pointsDone.Add(int64(units)) }

// Snapshot reads the record. Every count in it only grows over a run.
func (p *Progress) Snapshot() ProgressSnapshot {
	total := int(p.pointsTotal.Load())
	return ProgressSnapshot{
		Stage:          Stage(p.stage.Load()),
		PointsDone:     min(int(p.pointsDone.Load()), total),
		PointsTotal:    total,
		Suspects:       int(p.suspects.Load()),
		DeliveryFaults: int(p.deliveryFaults.Load()),
		RepairRounds:   int(p.repairRounds.Load()),
	}
}

package camelot

// Job is the async handle Cluster.Submit returns: a future for the
// run's (proof, report, error) triple plus an inspectable live status —
// which protocol stage the run is in, how much of the evaluation grid
// is done, how many suspect nodes the decoders have identified so far.
// The job holds the run's core.Progress, which the engine writes
// directly, so polling Status costs a few atomic loads and never
// perturbs the run.

import (
	"context"

	"camelot/internal/core"
)

// Stage identifies a protocol stage in a job's status.
type Stage = core.Stage

// Re-exported stage values for status inspection.
const (
	StageQueued  = core.StageQueued
	StagePrepare = core.StagePrepare
	StageDecode  = core.StageDecode
	StageVerify  = core.StageVerify
	StageDone    = core.StageDone
)

// JobState is the lifecycle state of a submitted job.
type JobState int32

const (
	// JobRunning means the job has been accepted and not yet finished.
	JobRunning JobState = iota
	// JobSucceeded means the run completed and its proof verified.
	JobSucceeded
	// JobFailed means the run returned an error (including verification
	// failure and cancellation).
	JobFailed
)

// String returns the state name.
func (s JobState) String() string {
	switch s {
	case JobRunning:
		return "running"
	case JobSucceeded:
		return "succeeded"
	case JobFailed:
		return "failed"
	}
	return "unknown"
}

// ProgressSnapshot is the engine's live record of a run: its Stage,
// PointsDone/PointsTotal, Suspects, DeliveryFaults and RepairRounds.
type ProgressSnapshot = core.ProgressSnapshot

// JobStatus is a point-in-time snapshot of a job: the run's progress plus
// the job's lifecycle.
type JobStatus struct {
	// Problem is the submitted problem's name.
	Problem string
	// State is the lifecycle state.
	State JobState
	ProgressSnapshot
	// Err is the terminal error for failed jobs, nil otherwise.
	Err error
}

// Job is an in-flight (or finished) Camelot run. Its methods are safe
// for concurrent use.
type Job struct {
	problem core.Problem
	done    chan struct{}
	// progress is the run's live record; the engine is its only writer.
	progress core.Progress

	// Terminal results; written once by finish before done is closed,
	// read only after done (or under the done-channel happens-before).
	proof  *Proof
	report *Report
	err    error
}

func newJob(p core.Problem) *Job {
	return &Job{problem: p, done: make(chan struct{})}
}

// finish publishes the terminal state. Called exactly once.
func (j *Job) finish(proof *Proof, report *Report, err error) {
	j.proof = proof
	j.report = report
	j.err = err
	close(j.done)
}

// Done returns a channel closed when the job reaches a terminal state —
// the select-friendly form of Wait.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes or ctx is done, whichever comes
// first, and returns the job's results. A ctx expiry here abandons the
// wait only — the job keeps running under its submission context; Wait
// again to re-attach. Like core.Run, a decoded proof may accompany a
// verification error, and the run's Report accompanies any failure of a
// run that started.
func (j *Job) Wait(ctx context.Context) (*Proof, *Report, error) {
	select {
	case <-j.done:
		return j.proof, j.report, j.err
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
}

// Err returns the terminal error for finished jobs and nil while the
// job is running (check Done first to distinguish "running" from
// "succeeded").
func (j *Job) Err() error {
	select {
	case <-j.done:
		return j.err
	default:
		return nil
	}
}

// Status returns a point-in-time snapshot of the job's progress. A
// finished job reads StageDone, even one whose run never started.
func (j *Job) Status() JobStatus {
	st := JobStatus{Problem: j.problem.Name(), State: JobRunning, ProgressSnapshot: j.progress.Snapshot()}
	select {
	case <-j.done:
		st.Stage, st.Err = StageDone, j.err
		if j.err != nil {
			st.State = JobFailed
		} else {
			st.State = JobSucceeded
		}
	default:
	}
	return st
}

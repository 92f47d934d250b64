package camelot

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sync"
	"testing"
	"time"

	"camelot/internal/core"
	"camelot/internal/tutte"
)

// mixedWorkload builds a small mixed problem set with known solo
// answers, for the concurrent-submission determinism tests.
func mixedWorkload(t *testing.T) []CountingProblem {
	t.Helper()
	var problems []CountingProblem
	for seed := int64(1); seed <= 2; seed++ {
		p, err := NewTriangleProblem(RandomGraph(20, 0.3, seed))
		if err != nil {
			t.Fatal(err)
		}
		problems = append(problems, p)
	}
	a := make([][]int64, 7)
	for i := range a {
		a[i] = make([]int64, 7)
		for j := range a[i] {
			a[i][j] = int64((i*j + i + 1) % 4)
		}
	}
	perm, err := NewPermanentProblem(a)
	if err != nil {
		t.Fatal(err)
	}
	problems = append(problems, perm)
	ham, err := NewHamiltonianCycleProblem(RandomGraph(8, 0.6, 5))
	if err != nil {
		t.Fatal(err)
	}
	problems = append(problems, ham)
	return problems
}

// soloProof runs one problem through the plain one-shot engine (no
// shared pool, no warm geometry) — the golden reference the cluster
// results must match bit for bit.
func soloProof(t *testing.T, p CountingProblem, opts core.Options) *Proof {
	t.Helper()
	proof, _, err := core.Run(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return proof
}

// sameProof compares two proofs byte for byte.
func sameProof(a, b *Proof) error {
	ab, err := a.MarshalBinary()
	if err != nil {
		return err
	}
	if bb, err := b.MarshalBinary(); err != nil || !bytes.Equal(ab, bb) {
		return fmt.Errorf("proof bytes differ (marshal error %v)", err)
	}
	return nil
}

func TestClusterConcurrentSubmissionDeterministic(t *testing.T) {
	// Satellite acceptance: N goroutines submitting mixed problems to
	// one cluster (run under -race in CI) must each get exactly the
	// proof a solo run produces, despite the shared pool interleaving
	// their chunks and the geometry cache being hammered concurrently.
	problems := mixedWorkload(t)
	opts := core.Options{Nodes: 3, Seed: 9, VerifyTrials: 1}
	golden := make([]*Proof, len(problems))
	for i, p := range problems {
		golden[i] = soloProof(t, p, opts)
	}

	cluster := NewCluster(WithNodes(3), WithMaxParallelism(4))
	defer cluster.Close()
	const goroutines, rounds = 6, 2
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines*rounds*len(problems))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Stagger the mix per goroutine.
				for off := 0; off < len(problems); off++ {
					i := (g + r + off) % len(problems)
					job := cluster.Submit(context.Background(), problems[i],
						WithSeed(9), WithVerifyTrials(1))
					proof, rep, err := job.Wait(context.Background())
					if err != nil {
						errCh <- fmt.Errorf("goroutine %d problem %d: %w", g, i, err)
						return
					}
					if !rep.Verified {
						errCh <- fmt.Errorf("goroutine %d problem %d: not verified", g, i)
						return
					}
					if err := sameProof(golden[i], proof); err != nil {
						errCh <- fmt.Errorf("goroutine %d problem %d: cluster proof diverges from solo run: %w", g, i, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestClusterCloseDrainsInFlightJobs(t *testing.T) {
	cluster := NewCluster(WithNodes(2))
	problems := mixedWorkload(t)
	jobs := make([]*Job, len(problems))
	for i, p := range problems {
		jobs[i] = cluster.Submit(context.Background(), p, WithSeed(1))
	}
	// Close with jobs in flight: it must block until they finish, not
	// abort them.
	cluster.Close()
	for i, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %d still running after Close returned", i)
		}
		if err := j.Err(); err != nil {
			t.Fatalf("job %d failed during drain: %v", i, err)
		}
		st := j.Status()
		if st.State != JobSucceeded || st.Stage != StageDone {
			t.Fatalf("job %d status after drain: %+v", i, st)
		}
	}
	// Submissions after Close fail fast with ErrClusterClosed.
	p := problems[0]
	j := cluster.Submit(context.Background(), p)
	if _, _, err := j.Wait(context.Background()); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("post-close submit returned %v, want ErrClusterClosed", err)
	}
	if st := j.Status(); st.State != JobFailed {
		t.Fatalf("post-close job state %v, want failed", st.State)
	}
	// Close is idempotent.
	cluster.Close()
}

func TestJobStatusProgressesAndReportsGeometry(t *testing.T) {
	cluster := NewCluster(WithNodes(2))
	defer cluster.Close()
	p, err := NewTriangleProblem(RandomGraph(28, 0.3, 2))
	if err != nil {
		t.Fatal(err)
	}
	job := cluster.Submit(context.Background(), p, WithVerifyTrials(2))
	proof, rep, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := job.Status()
	if st.State != JobSucceeded {
		t.Fatalf("state %v, want succeeded", st.State)
	}
	if want := rep.CodeLength * len(rep.Primes); st.PointsDone != want || st.PointsTotal != want {
		t.Fatalf("points %d/%d, want %d/%d", st.PointsDone, st.PointsTotal, want, want)
	}
	if st.Problem != rep.Problem {
		t.Fatalf("status problem %q, report problem %q", st.Problem, rep.Problem)
	}
	if proof.Size() != rep.ProofSymbols {
		t.Fatal("proof size disagrees with report")
	}
}

// TestJobStatusLiveThroughLossyRepair polls Job.Status from a goroutine
// (under -race in CI) while a cluster run loses two nodes' broadcasts,
// refuses, repairs and names a lying node. Every read must see the
// counts only grow and PointsDone within PointsTotal, and the last read
// must agree with the Report.
func TestJobStatusLiveThroughLossyRepair(t *testing.T) {
	p, err := NewTriangleProblem(RandomGraph(18, 0.35, 7))
	if err != nil {
		t.Fatal(err)
	}
	const k, liar = 8, 7
	// f covers the liar's block of about e/k errors, but not that plus
	// two lost blocks: round 0 refuses and one repair round heals it.
	d := soloProof(t, p, core.Options{Nodes: 1}).Degree
	faults := 0
	for faults < (d+1+2*faults+k-1)/k {
		faults++
	}
	cluster := NewCluster(WithNodes(k))
	defer cluster.Close()
	job := cluster.Submit(context.Background(), p,
		WithFaultTolerance(faults), WithAdversary(Adversary{Seed: 11, Liars: []int{liar}, DropNodes: []int{2, 5}}),
		WithMaxErasures(2), WithMaxRepairRounds(1), WithGatherGrace(5*time.Second))

	polled := make(chan error, 1)
	go func() {
		var last JobStatus
		for {
			st := job.Status()
			switch {
			case st.PointsDone < last.PointsDone || st.Suspects < last.Suspects:
				polled <- fmt.Errorf("status went back: %+v after %+v", st, last)
				return
			case st.PointsDone > st.PointsTotal:
				polled <- fmt.Errorf("PointsDone %d > PointsTotal %d", st.PointsDone, st.PointsTotal)
				return
			case st.State != JobRunning:
				polled <- nil
				return
			}
			last = st
		}
	}()
	_, rep, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-polled; err != nil {
		t.Fatal(err)
	}
	if rep.RepairRounds != 1 || !slices.Equal(rep.SuspectNodes, []int{liar}) {
		t.Fatalf("fixture: repair rounds %d, suspects %v; want 1 and [%d]", rep.RepairRounds, rep.SuspectNodes, liar)
	}
	st := job.Status()
	if st.Suspects != len(rep.SuspectNodes) || st.DeliveryFaults != len(rep.MissingNodes)+len(rep.RepairedNodes) ||
		st.RepairRounds != rep.RepairRounds {
		t.Fatalf("final status %+v disagrees with the report: suspects %v, missing %v, repaired %v, %d repair rounds",
			st, rep.SuspectNodes, rep.MissingNodes, rep.RepairedNodes, rep.RepairRounds)
	}
}

func TestJobWaitHonorsWaiterContext(t *testing.T) {
	cluster := NewCluster(WithNodes(1))
	defer cluster.Close()
	p, err := NewTriangleProblem(RandomGraph(30, 0.3, 4))
	if err != nil {
		t.Fatal(err)
	}
	job := cluster.Submit(context.Background(), p)
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := job.Wait(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait with expired ctx returned %v, want context.Canceled", err)
	}
	// The job itself keeps running under its submission context.
	if proof, _, err := job.Wait(context.Background()); err != nil || proof == nil {
		t.Fatalf("re-attached Wait: proof=%v err=%v", proof, err)
	}
}

func TestClusterSubmissionContextCancelsJob(t *testing.T) {
	cluster := NewCluster(WithNodes(2))
	defer cluster.Close()
	p, err := NewTriangleProblem(RandomGraph(40, 0.4, 6))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	job := cluster.Submit(ctx, p)
	start := time.Now()
	if _, _, err := job.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submission returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled job took %v to settle", elapsed)
	}
	if st := job.Status(); st.State != JobFailed {
		t.Fatalf("state %v, want failed", st.State)
	}
}

func TestTutteConcurrentLinesMatchSequentialDriver(t *testing.T) {
	// The flagship consumer: the facade's concurrent FK-line driver must
	// reproduce the deletion–contraction coefficients exactly.
	mg := RandomMultigraph(5, 6, 3)
	res, err := TuttePolynomial(context.Background(), mg, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	dc := tutte.DeletionContraction(mg.mg)
	for a := range res.T {
		for b := range res.T[a] {
			var want *big.Int
			if a < len(dc) && b < len(dc[a]) {
				want = dc[a][b]
			} else {
				want = big.NewInt(0)
			}
			if res.T[a][b].Cmp(want) != 0 {
				t.Fatalf("T[%d][%d] = %v, want %v", a, b, res.T[a][b], want)
			}
		}
	}
	if len(res.Reports) != mg.M()+1 {
		t.Fatalf("%d reports, want %d", len(res.Reports), mg.M()+1)
	}
	for ri, rep := range res.Reports {
		if rep == nil {
			t.Fatalf("report %d missing", ri)
		}
	}
}

func TestTuttePolynomialHonorsExplicitParallelism(t *testing.T) {
	mg := RandomMultigraph(5, 6, 3)
	a, err := TuttePolynomial(context.Background(), mg, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := TuttePolynomial(context.Background(), mg, WithSeed(2), WithMaxParallelism(1), WithNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.T {
		for j := range a.T[i] {
			if a.T[i][j].Cmp(b.T[i][j]) != 0 {
				t.Fatalf("T[%d][%d] differs under explicit parallelism bound", i, j)
			}
		}
	}
}

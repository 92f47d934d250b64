package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"camelot/internal/ff"
	"camelot/internal/plan"
)

// gatedCompiler counts Compile calls and holds each one until release
// closes, so concurrent callers pile up on the in-flight compile.
type gatedCompiler struct {
	*polyProblem
	compiles atomic.Int64
	release  chan struct{}
	err      error
}

func (p *gatedCompiler) Compile(f ff.Field) (plan.Plan, error) {
	p.compiles.Add(1)
	<-p.release
	if p.err != nil {
		return nil, p.err
	}
	return pointwise{p: p.polyProblem, q: f.Q}, nil
}

// TestPlannerSingleFlight pins the planner's memo under the engine's
// access pattern: chunk tasks on every pool worker ask for the same
// prime at once, Compile runs exactly once per (planner, prime), and
// every caller gets its result — a compile error included.
func TestPlannerSingleFlight(t *testing.T) {
	const callers = 8
	boom := errors.New("bad geometry")
	for name, want := range map[string]error{"plan": nil, "error": boom} {
		t.Run(name, func(t *testing.T) {
			p := &gatedCompiler{polyProblem: testProblem(), release: make(chan struct{}), err: want}
			pl := NewPlanner(p)
			errs := make([]error, callers)
			plans := make([]plan.Plan, callers)
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					plans[i], errs[i] = pl.For(257)
				}()
			}
			for p.compiles.Load() == 0 {
				runtime.Gosched()
			}
			close(p.release)
			wg.Wait()
			for i := range errs {
				if !errors.Is(errs[i], want) || (want == nil && plans[i] == nil) {
					t.Fatalf("caller %d got (%v, %v), want error %v", i, plans[i], errs[i], want)
				}
			}
			// A later call reuses the memo; another prime compiles anew.
			if _, err := pl.For(257); !errors.Is(err, want) {
				t.Fatalf("memoized result changed: %v", err)
			}
			if n := p.compiles.Load(); n != 1 {
				t.Fatalf("Compile ran %d times for one prime, want 1", n)
			}
			if _, err := pl.For(769); !errors.Is(err, want) {
				t.Fatal(err)
			}
			if n := p.compiles.Load(); n != 2 {
				t.Fatalf("Compile ran %d times for two primes, want 2", n)
			}
		})
	}
}

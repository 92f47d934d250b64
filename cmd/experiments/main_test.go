package main

import "testing"

// TestRunQuickE12 keeps the experiment driver in tier-1: the robustness
// and soundness experiment at its CI size exercises flag parsing, the
// experiment table and the helpers; its own checks panic on a wrong
// outcome.
func TestRunQuickE12(t *testing.T) {
	if err := run([]string{"-quick", "-only", "E12"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

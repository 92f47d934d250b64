package bitset

import (
	"testing"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 63, 64, 129} {
		s.Add(i)
	}
	if got := s.Count(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	for _, i := range []int{0, 63, 64, 129} {
		if !s.Contains(i) {
			t.Fatalf("missing %d", i)
		}
	}
	if s.Contains(1) || s.Contains(128) {
		t.Fatal("contains spurious element")
	}
	s.Remove(64)
	if s.Contains(64) || s.Count() != 3 {
		t.Fatal("remove failed")
	}
}

func TestForEachOrder(t *testing.T) {
	s := New(200)
	want := []int{3, 64, 65, 190}
	for _, i := range want {
		s.Add(i)
	}
	got := s.Elements()
	if len(got) != len(want) {
		t.Fatalf("Elements = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elements = %v, want %v", got, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New(10)
	s.Add(3)
	c := s.Clone()
	c.Add(5)
	if s.Contains(5) {
		t.Fatal("clone shares storage with original")
	}
	if !c.Contains(3) {
		t.Fatal("clone missing original element")
	}
}

// setOf returns the set of elems over a universe of n.
func setOf(n int, elems ...int) Set {
	s := New(n)
	for _, i := range elems {
		s.Add(i)
	}
	return s
}

func TestIntersectsAndContainsAll(t *testing.T) {
	a := setOf(10, 0, 1, 3)
	b := setOf(10, 1)
	c := setOf(10, 2)
	if !a.IntersectsWith(b) {
		t.Fatal("a should intersect b")
	}
	if a.IntersectsWith(c) {
		t.Fatal("a should not intersect c")
	}
	if !a.ContainsAll(b) {
		t.Fatal("b ⊆ a expected")
	}
	if a.ContainsAll(c) {
		t.Fatal("c ⊄ a expected")
	}
}

func TestWord(t *testing.T) {
	s := setOf(8, 0, 4, 5, 7)
	if s.Word(0) != 0b10110001 {
		t.Fatalf("Word(0) = %b", s.Word(0))
	}
	if s.Word(5) != 0 {
		t.Fatal("out-of-range word must be 0")
	}
	if s.Count() != 4 {
		t.Fatalf("Count = %d", s.Count())
	}
}

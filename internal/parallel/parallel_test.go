package parallel

import (
	"fmt"
	"testing"
)

func TestMapOrderedResults(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{0, 1, 2, 8, 200} {
		got, err := Map(workers, items, func(i, v int) (int, error) {
			return v * v, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(items) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(items))
		}
		for i, r := range got {
			if r != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, r, i*i)
			}
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	items := make([]int, 500)
	for i := range items {
		items[i] = i
	}
	fn := func(i, v int) (string, error) { return fmt.Sprintf("%d:%d", i, v*3), nil }
	base, err := Map(1, items, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		got, err := Map(workers, items, fn)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: result[%d] = %q, want %q", workers, i, got[i], base[i])
			}
		}
	}
}

func TestMapLowestIndexErrorWins(t *testing.T) {
	items := make([]int, 64)
	for _, workers := range []int{1, 4, 64} {
		_, err := Map(workers, items, func(i, _ int) (int, error) {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return 0, fmt.Errorf("item %d failed", i)
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		if got, want := err.Error(), "item 3 failed"; got != want {
			t.Fatalf("workers=%d: error %q, want %q", workers, got, want)
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	got, err := Map(8, nil, func(i, v int) (int, error) { return v, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty: got %v, %v", got, err)
	}
	got, err = Map(8, []int{41}, func(i, v int) (int, error) { return v + 1, nil })
	if err != nil || len(got) != 1 || got[0] != 42 {
		t.Fatalf("single: got %v, %v", got, err)
	}
}

func TestClamp(t *testing.T) {
	if got := clamp(0, 100); got != defaultWorkers() {
		t.Fatalf("Clamp(0, 100) = %d, want %d", got, defaultWorkers())
	}
	if got := clamp(16, 4); got != 4 {
		t.Fatalf("Clamp(16, 4) = %d, want 4", got)
	}
	if got := clamp(-3, 0); got != 1 {
		t.Fatalf("Clamp(-3, 0) = %d, want 1", got)
	}
}

package ring

import (
	"testing"
)

func TestFIFOOrder(t *testing.T) {
	var b Buffer[int]
	for i := 0; i < 100; i++ {
		b.Push(i)
	}
	if b.Len() != 100 {
		t.Fatalf("Len = %d, want 100", b.Len())
	}
	for i := 0; i < 100; i++ {
		if got := b.Pop(); got != i {
			t.Fatalf("Pop #%d = %d", i, got)
		}
	}
	if b.Len() != 0 {
		t.Fatalf("Len after drain = %d", b.Len())
	}
}

// TestInterleavedWrap drives the head around the backing array repeatedly:
// FIFO order must survive wrap-around and growth mid-stream.
func TestInterleavedWrap(t *testing.T) {
	var b Buffer[int]
	next, expect := 0, 0
	for round := 0; round < 200; round++ {
		push := 1 + round%7
		for i := 0; i < push; i++ {
			b.Push(next)
			next++
		}
		pop := 1 + round%5
		if pop > b.Len() {
			pop = b.Len()
		}
		for i := 0; i < pop; i++ {
			if got := b.Pop(); got != expect {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, expect)
			}
			expect++
		}
	}
	for b.Len() > 0 {
		if got := b.Pop(); got != expect {
			t.Fatalf("drain: Pop = %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("popped %d of %d pushed", expect, next)
	}
}

func TestFrontAndAt(t *testing.T) {
	var b Buffer[string]
	b.Push("a")
	b.Push("b")
	b.Push("c")
	if b.Front() != "a" {
		t.Fatalf("Front = %q", b.Front())
	}
	for i, want := range []string{"a", "b", "c"} {
		if got := b.At(i); got != want {
			t.Fatalf("At(%d) = %q, want %q", i, got, want)
		}
	}
	b.Pop()
	if b.Front() != "b" || b.At(1) != "c" {
		t.Fatalf("after Pop: Front=%q At(1)=%q", b.Front(), b.At(1))
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty buffer should panic")
		}
	}()
	var b Buffer[int]
	b.Pop()
}

// TestSteadyStateNoAllocs locks in the reason the ring exists: once the
// high-water mark is reached, Push/Pop cycles must never allocate.
func TestSteadyStateNoAllocs(t *testing.T) {
	var b Buffer[*int]
	v := new(int)
	for i := 0; i < 64; i++ {
		b.Push(v)
	}
	for b.Len() > 0 {
		b.Pop()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 64; i++ {
			b.Push(v)
		}
		for b.Len() > 0 {
			b.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Push/Pop allocates %.1f per round, want 0", allocs)
	}
}

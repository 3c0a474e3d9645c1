package heap

import (
	"math"
	"math/rand"
	"testing"
)

// TestRemoveWhileIterating walks a TopN snapshot and removes each
// visited element: the lazy-removal pattern of the locality-aware POP
// (duplicates already executed through another node's heap are removed
// mid-scan). The heap property must survive every removal.
func TestRemoveWhileIterating(t *testing.T) {
	h := New(0)
	for i := int64(0); i < 20; i++ {
		h.Push(i, Score{Primary: float64(i % 7), Secondary: float64(i)})
	}
	for h.Len() > 0 {
		top := h.TopN(nil, 5)
		if len(top) == 0 {
			t.Fatal("TopN returned nothing on a non-empty heap")
		}
		for _, id := range top {
			if !h.Remove(id) {
				t.Fatalf("id %d from TopN not present at removal", id)
			}
			if h.Contains(id) {
				t.Fatalf("id %d still present after Remove", id)
			}
			if err := h.Verify(); err != nil {
				t.Fatalf("heap property broken after removing %d: %v", id, err)
			}
		}
	}
}

// TestUpdateToEqualKeys collapses every score onto one value: updates
// must keep the heap consistent when old and new keys compare equal in
// both directions, and all elements must still drain out exactly once.
func TestUpdateToEqualKeys(t *testing.T) {
	cases := []struct {
		name string
		n    int64
		to   Score
	}{
		{"all-zero", 12, Score{}},
		{"all-equal-nonzero", 9, Score{Primary: 3.5, Secondary: -1}},
		{"single", 1, Score{Primary: 1}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			h := New(int(c.n))
			for i := int64(0); i < c.n; i++ {
				h.Push(i, Score{Primary: float64(i), Secondary: float64(-i)})
			}
			for i := int64(0); i < c.n; i++ {
				if !h.Update(i, c.to) {
					t.Fatalf("Update(%d) reported absent", i)
				}
				if err := h.Verify(); err != nil {
					t.Fatalf("after Update(%d): %v", i, err)
				}
				if got, _ := h.Score(i); got != c.to {
					t.Fatalf("Score(%d) = %v, want %v", i, got, c.to)
				}
			}
			drained := make(map[int64]bool, c.n)
			for {
				id, s, ok := h.Pop()
				if !ok {
					break
				}
				if s != c.to {
					t.Fatalf("popped score %v, want %v", s, c.to)
				}
				if drained[id] {
					t.Fatalf("id %d popped twice", id)
				}
				drained[id] = true
			}
			if int64(len(drained)) != c.n {
				t.Fatalf("drained %d of %d elements", len(drained), c.n)
			}
		})
	}
}

// TestTopNBeyondLen asks for more candidates than stored: TopN must
// return exactly Len ids, in non-ascending score order, without
// touching the heap.
func TestTopNBeyondLen(t *testing.T) {
	for _, size := range []int{0, 1, 3, 8} {
		h := New(0)
		for i := 0; i < size; i++ {
			h.Push(int64(i), Score{Primary: float64(i * 3 % 5), Secondary: float64(i)})
		}
		got := h.TopN(nil, size+10)
		if len(got) != size {
			t.Fatalf("size %d: TopN(n=%d) returned %d ids", size, size+10, len(got))
		}
		for i := 1; i < len(got); i++ {
			a, _ := h.Score(got[i-1])
			b, _ := h.Score(got[i])
			if a.Less(b) {
				t.Fatalf("size %d: TopN out of order at %d: %v before %v", size, i, a, b)
			}
		}
		if h.Len() != size {
			t.Fatalf("TopN mutated the heap: len %d, want %d", h.Len(), size)
		}
		if err := h.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDenseIndexDifferential drives Push, Remove, Update, Pop and Clear
// with random ids from a small range (so ids are absent, present, and
// reused after removal and after Clear) against a map-based reference,
// checking the invariants after every operation.
func TestDenseIndexDifferential(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := New(rng.Intn(8))
		ref := map[int64]Score{}
		for op := 0; op < 2000; op++ {
			id := int64(rng.Intn(96))
			sc := Score{Primary: float64(rng.Intn(8)), Secondary: float64(rng.Intn(8))}
			switch k := rng.Intn(100); {
			case k < 40:
				if _, ok := ref[id]; ok {
					continue
				}
				h.Push(id, sc)
				ref[id] = sc
			case k < 60:
				_, ok := ref[id]
				if got := h.Remove(id); got != ok {
					t.Fatalf("seed %d op %d: Remove(%d) = %v, reference %v", seed, op, id, got, ok)
				}
				delete(ref, id)
			case k < 80:
				_, ok := ref[id]
				if got := h.Update(id, sc); got != ok {
					t.Fatalf("seed %d op %d: Update(%d) = %v, reference %v", seed, op, id, got, ok)
				}
				if ok {
					ref[id] = sc
				}
			case k < 99:
				got, gotSc, ok := h.Pop()
				if ok != (len(ref) > 0) {
					t.Fatalf("seed %d op %d: Pop ok = %v with %d in the reference", seed, op, ok, len(ref))
				}
				if !ok {
					continue
				}
				for _, s := range ref {
					if gotSc.Less(s) {
						t.Fatalf("seed %d op %d: Pop returned %v below reference %v", seed, op, gotSc, s)
					}
				}
				if ref[got] != gotSc {
					t.Fatalf("seed %d op %d: Pop returned id %d with %v, reference holds %v", seed, op, got, gotSc, ref[got])
				}
				delete(ref, got)
			default:
				h.Clear()
				clear(ref)
			}
			if err := h.Verify(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			if h.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len %d, reference %d", seed, op, h.Len(), len(ref))
			}
			probe := int64(rng.Intn(128))
			want, in := ref[probe]
			if got, ok := h.Score(probe); ok != in || got != want || h.Contains(probe) != in {
				t.Fatalf("seed %d op %d: Score(%d) = %v, %v; reference %v, %v", seed, op, probe, got, ok, want, in)
			}
		}
	}
}

// TestAbsentIDs checks lookups of ids inside the index but absent,
// beyond the index, and negative all report absence without panicking.
func TestAbsentIDs(t *testing.T) {
	h := New(0)
	h.Push(3, Score{Primary: 1})
	h.Push(5, Score{Primary: 2})
	h.Remove(5)
	for _, id := range []int64{0, 4, 5, 6, 1 << 20, math.MaxInt32 + 1, math.MaxInt64, -1, math.MinInt64} {
		if h.Contains(id) {
			t.Errorf("Contains(%d) = true", id)
		}
		if _, ok := h.Score(id); ok {
			t.Errorf("Score(%d) reported present", id)
		}
		if h.Update(id, Score{}) {
			t.Errorf("Update(%d) = true", id)
		}
		if h.Remove(id) {
			t.Errorf("Remove(%d) = true", id)
		}
	}
	if err := h.Verify(); err != nil || h.Len() != 1 {
		t.Fatalf("heap disturbed by absent lookups: len %d, %v", h.Len(), err)
	}
}

// TestPushOutOfRangePanics checks ids outside [0, MaxInt32] are rejected
// at Push, before the index grows.
func TestPushOutOfRangePanics(t *testing.T) {
	for _, id := range []int64{-1, math.MinInt64, math.MaxInt32 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Push(%d) did not panic", id)
				}
			}()
			New(0).Push(id, Score{})
		}()
	}
}

// TestIDsReusedAfterClear checks Clear releases every id: the same ids
// push again, in a different order, without a duplicate-push panic.
func TestIDsReusedAfterClear(t *testing.T) {
	h := New(2)
	for id := int64(0); id < 40; id++ {
		h.Push(id, Score{Primary: float64(id)})
	}
	h.Clear()
	for id := int64(39); id >= 0; id-- {
		h.Push(id, Score{Primary: float64(-id)})
	}
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
	if id, _, _ := h.Peek(); id != 0 || h.Len() != 40 {
		t.Fatalf("after Clear and re-push: head %d, len %d; want head 0, len 40", id, h.Len())
	}
}

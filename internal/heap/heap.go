// Package heap provides an indexed binary max-heap used as the priority
// queue substrate of the MultiPrio scheduler.
//
// The paper (Section III-B) manages ready tasks in one binary max-heap per
// memory node. A task may be duplicated across several heaps, and the
// eviction mechanism (Section V-D) removes a task from one heap while the
// duplicates survive in the others. That requires a heap supporting, beyond
// the usual push/pop-max:
//
//   - removal of an arbitrary element by identity (eviction, lazy
//     invalidation of duplicates already executed elsewhere),
//   - in-place priority updates (re-normalization of scores),
//   - bounded inspection of the first n elements without popping them
//     (the locality-aware POP scans the top n candidates, Section V-C).
//
// The heap is parameterized by an integer item identity. Callers keep a
// side table from identity to payload. All operations are O(log n) except
// TopN which is O(n log n) in the requested n.
//
// Identities are task IDs: dense, non-negative and at most MaxInt32. The
// heap indexes positions by identity in a slice rather than a map, so
// the sift loops and lookups never hash; the index grows to the largest
// identity pushed.
package heap

import (
	"fmt"
	"math"
)

// Score is the ordering key of a heap element: a primary key and a
// tie-breaking secondary key, both descending. MultiPrio uses the gain
// heuristic as primary key and the NOD criticality as secondary key
// (Section IV-B of the paper).
type Score struct {
	Primary   float64
	Secondary float64
}

// Less reports whether s orders strictly below o in the max-heap, i.e. o
// has higher priority.
func (s Score) Less(o Score) bool {
	if s.Primary != o.Primary {
		return s.Primary < o.Primary
	}
	return s.Secondary < o.Secondary
}

type entry struct {
	id    int64
	score Score
}

// ScoredID is a TopNScored result element: an item identity with the
// score it held at scan time.
type ScoredID struct {
	ID    int64
	Score Score
}

// cand is a frontier element of the partial TopN traversal.
type cand struct {
	idx   int
	score Score
}

// Heap is an indexed binary max-heap keyed by (Primary, Secondary)
// descending. The zero value is not usable; call New.
//
// Heap is not safe for concurrent use; callers synchronize externally
// (the scheduler engine holds one lock per heap set).
type Heap struct {
	items []entry
	// pos[id] is id's index in items plus one; 0 means absent. It is
	// indexed by identity and grows on demand in Push.
	pos []int32

	// frontier is the reused scratch of the partial TopN traversal
	// (POP runs a top-n scan on every idle worker wake-up; allocating
	// the frontier there dominated the scheduler's allocation profile).
	frontier []cand
}

// New returns an empty heap with capacity hint cap.
func New(cap int) *Heap {
	if cap < 0 {
		cap = 0
	}
	return &Heap{
		items: make([]entry, 0, cap),
		pos:   make([]int32, cap),
	}
}

// Len returns the number of elements currently stored.
func (h *Heap) Len() int { return len(h.items) }

// index returns id's position in items, or -1 when id is absent
// (including ids outside the index).
func (h *Heap) index(id int64) int {
	if id < 0 || id >= int64(len(h.pos)) {
		return -1
	}
	return int(h.pos[id]) - 1
}

// Contains reports whether the item id is currently in the heap.
func (h *Heap) Contains(id int64) bool { return h.index(id) >= 0 }

// Score returns the current score of id and whether it is present.
func (h *Heap) Score(id int64) (Score, bool) {
	i := h.index(id)
	if i < 0 {
		return Score{}, false
	}
	return h.items[i].score, true
}

// Push inserts id with the given score. It panics if id is already
// present (a task is pushed at most once per memory-node heap) or
// outside [0, MaxInt32].
func (h *Heap) Push(id int64, score Score) {
	if id < 0 || id > math.MaxInt32 {
		panic(fmt.Sprintf("heap: id %d outside [0, MaxInt32]", id))
	}
	if id >= int64(len(h.pos)) {
		grown := make([]int32, max(id+1, 2*int64(len(h.pos))))
		copy(grown, h.pos)
		h.pos = grown
	} else if h.pos[id] != 0 {
		panic(fmt.Sprintf("heap: duplicate push of id %d", id))
	}
	h.items = append(h.items, entry{id: id, score: score})
	i := len(h.items) - 1
	h.pos[id] = int32(i + 1)
	h.up(i)
}

// Peek returns the id and score of the maximum element without removing
// it. ok is false when the heap is empty.
func (h *Heap) Peek() (id int64, score Score, ok bool) {
	if len(h.items) == 0 {
		return 0, Score{}, false
	}
	e := h.items[0]
	return e.id, e.score, true
}

// Pop removes and returns the maximum element. ok is false when empty.
func (h *Heap) Pop() (id int64, score Score, ok bool) {
	if len(h.items) == 0 {
		return 0, Score{}, false
	}
	e := h.items[0]
	h.removeAt(0)
	return e.id, e.score, true
}

// Remove deletes id from the heap. It reports whether id was present.
// This implements both the eviction mechanism and the lazy removal of
// duplicates already executed through another memory node's heap.
func (h *Heap) Remove(id int64) bool {
	i := h.index(id)
	if i < 0 {
		return false
	}
	h.removeAt(i)
	return true
}

// Update changes the score of id and restores the heap property. It
// reports whether id was present.
func (h *Heap) Update(id int64, score Score) bool {
	i := h.index(id)
	if i < 0 {
		return false
	}
	old := h.items[i].score
	h.items[i].score = score
	if old.Less(score) {
		h.up(i)
	} else {
		h.down(i)
	}
	return true
}

// TopN appends to dst the ids of up to n highest-priority elements in
// descending score order, without mutating the heap, and returns the
// extended slice. It is used by the locality-aware POP which examines the
// first n candidates (n=10 in the paper's evaluation).
func (h *Heap) TopN(dst []int64, n int) []int64 {
	h.topN(n, func(id int64, _ Score) {
		dst = append(dst, id)
	})
	return dst
}

// TopNScored is TopN returning each element with its score, so callers
// that compare scores against the head (the ε-window of the
// locality-aware POP) avoid a position lookup per candidate.
func (h *Heap) TopNScored(dst []ScoredID, n int) []ScoredID {
	h.topN(n, func(id int64, sc Score) {
		dst = append(dst, ScoredID{ID: id, Score: sc})
	})
	return dst
}

// topN runs the partial best-first traversal, calling emit for up to n
// elements in descending score order without mutating the heap. The
// frontier scratch lives on the Heap and is reused across calls.
func (h *Heap) topN(n int, emit func(id int64, sc Score)) {
	if n <= 0 || len(h.items) == 0 {
		return
	}
	if n > len(h.items) {
		n = len(h.items)
	}
	frontier := h.frontier[:0]
	push := func(c cand) {
		frontier = append(frontier, c)
		i := len(frontier) - 1
		for i > 0 {
			p := (i - 1) / 2
			if frontier[p].score.Less(frontier[i].score) {
				frontier[p], frontier[i] = frontier[i], frontier[p]
				i = p
			} else {
				break
			}
		}
	}
	pop := func() cand {
		top := frontier[0]
		last := len(frontier) - 1
		frontier[0] = frontier[last]
		frontier = frontier[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < len(frontier) && frontier[big].score.Less(frontier[l].score) {
				big = l
			}
			if r < len(frontier) && frontier[big].score.Less(frontier[r].score) {
				big = r
			}
			if big == i {
				break
			}
			frontier[i], frontier[big] = frontier[big], frontier[i]
			i = big
		}
		return top
	}
	push(cand{idx: 0, score: h.items[0].score})
	for len(frontier) > 0 && n > 0 {
		c := pop()
		e := h.items[c.idx]
		emit(e.id, e.score)
		n--
		if n == 0 {
			break
		}
		if l := 2*c.idx + 1; l < len(h.items) {
			push(cand{idx: l, score: h.items[l].score})
		}
		if r := 2*c.idx + 2; r < len(h.items) {
			push(cand{idx: r, score: h.items[r].score})
		}
	}
	h.frontier = frontier[:0]
}

// Clear removes all elements.
func (h *Heap) Clear() {
	for _, e := range h.items {
		h.pos[e.id] = 0
	}
	h.items = h.items[:0]
}

// Verify checks the internal heap invariants; it is exported for tests
// and returns a descriptive error when an invariant is broken.
func (h *Heap) Verify() error {
	n := 0
	for _, p := range h.pos {
		if p != 0 {
			n++
		}
	}
	if len(h.items) != n {
		return fmt.Errorf("heap: %d items but %d positions", len(h.items), n)
	}
	for i, e := range h.items {
		if p := h.index(e.id); p != i {
			return fmt.Errorf("heap: id %d at index %d has position %d", e.id, i, p)
		}
		if l := 2*i + 1; l < len(h.items) && h.items[i].score.Less(h.items[l].score) {
			return fmt.Errorf("heap: order violated between %d and left child %d", i, l)
		}
		if r := 2*i + 2; r < len(h.items) && h.items[i].score.Less(h.items[r].score) {
			return fmt.Errorf("heap: order violated between %d and right child %d", i, r)
		}
	}
	return nil
}

func (h *Heap) removeAt(i int) {
	last := len(h.items) - 1
	h.pos[h.items[i].id] = 0
	if i != last {
		h.items[i] = h.items[last]
		h.pos[h.items[i].id] = int32(i + 1)
	}
	h.items = h.items[:last]
	if i < len(h.items) {
		h.up(i)
		h.down(i)
	}
}

func (h *Heap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.items[p].score.Less(h.items[i].score) {
			break
		}
		h.swap(p, i)
		i = p
	}
}

func (h *Heap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h.items) && h.items[big].score.Less(h.items[l].score) {
			big = l
		}
		if r < len(h.items) && h.items[big].score.Less(h.items[r].score) {
			big = r
		}
		if big == i {
			return
		}
		h.swap(i, big)
		i = big
	}
}

func (h *Heap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].id] = int32(i + 1)
	h.pos[h.items[j].id] = int32(j + 1)
}

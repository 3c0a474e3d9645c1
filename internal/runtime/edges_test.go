package runtime

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// succIDs returns the successor IDs of t in order.
func succIDs(t *Task) []int64 {
	var ids []int64
	for _, s := range t.Succs() {
		ids = append(ids, s.ID)
	}
	return ids
}

// TestDeclareOntoFullWindowKeepsNeighbours pins the capped-window
// property of batch edge blocks: one batch lays out its pred windows
// [c:b][d:a] and then its succ windows [a:d][b:c] back to back, every
// window full. Declare appending to a's succ window or to c's pred
// window must reallocate it, not write into the neighbour that follows.
func TestDeclareOntoFullWindowKeepsNeighbours(t *testing.T) {
	one := []float64{1}
	g := NewGraph()
	h0, h1, h2 := g.NewData("h0", 8), g.NewData("h1", 8), g.NewData("h2", 8)
	ts := g.SubmitBatch([]TaskSpec{
		{Kind: "a", Cost: one, Accesses: []Access{{Handle: h0, Mode: W}}},
		{Kind: "b", Cost: one, Accesses: []Access{{Handle: h1, Mode: W}}},
		{Kind: "e", Cost: one, Accesses: []Access{{Handle: h2, Mode: W}}},
		{Kind: "c", Cost: one, Accesses: []Access{{Handle: h1, Mode: R}}},
		{Kind: "d", Cost: one, Accesses: []Access{{Handle: h0, Mode: R}}},
	})
	a, b, e, c, d := ts[0], ts[1], ts[2], ts[3], ts[4]
	x := g.Submit(&Task{Kind: "x", Cost: one})

	g.Declare(a, x)
	if got := succIDs(b); !slices.Equal(got, []int64{c.ID}) {
		t.Fatalf("Declare(a, x) changed b's succs to %v, want [%d]", got, c.ID)
	}
	g.Declare(e, c)
	if got := predIDs(g, d); !slices.Equal(got, []int64{a.ID}) {
		t.Fatalf("Declare(e, c) changed d's preds to %v, want [%d]", got, a.ID)
	}

	want := []struct {
		task         *Task
		preds, succs []int64
	}{
		{a, nil, []int64{d.ID, x.ID}},
		{b, nil, []int64{c.ID}},
		{e, nil, []int64{c.ID}},
		{c, []int64{b.ID, e.ID}, nil},
		{d, []int64{a.ID}, nil},
		{x, []int64{a.ID}, nil},
	}
	for _, w := range want {
		if got := predIDs(g, w.task); !slices.Equal(got, w.preds) {
			t.Errorf("%s preds = %v, want %v", w.task.Kind, got, w.preds)
		}
		if got := succIDs(w.task); !slices.Equal(got, w.succs) {
			t.Errorf("%s succs = %v, want %v", w.task.Kind, got, w.succs)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// refGraph is STF inference the way Submit did it before batch edge
// windows: per-edge appends to per-task slices, per-handle reader and
// commuter slices. It is the reference FuzzInference checks against.
type refGraph struct {
	preds, succs [][]int64
	handles      []refHandle
}

type refHandle struct {
	lastWriter         int64 // -1: none
	readers, commuters []int64
}

func newRefGraph(handles int) *refGraph {
	r := &refGraph{handles: make([]refHandle, handles)}
	for i := range r.handles {
		r.handles[i].lastWriter = -1
	}
	return r
}

func (r *refGraph) submit(acc []Access) {
	id := int64(len(r.preds))
	r.preds = append(r.preds, nil)
	r.succs = append(r.succs, nil)
	seen := map[int64]bool{id: true}
	var deps []int64
	dep := func(d int64) {
		if d < 0 || seen[d] {
			return
		}
		seen[d] = true
		deps = append(deps, d)
	}
	for _, a := range acc {
		h := &r.handles[a.Handle.ID]
		switch a.Mode {
		case R:
			if len(h.commuters) > 0 {
				for _, c := range h.commuters {
					dep(c)
				}
				h.commuters = h.commuters[:0]
				h.lastWriter = -1
				h.readers = h.readers[:0]
			} else {
				dep(h.lastWriter)
			}
			h.readers = append(h.readers, id)
		case Commute:
			dep(h.lastWriter)
			for _, rd := range h.readers {
				dep(rd)
			}
			h.commuters = append(h.commuters, id)
		case W, RW:
			dep(h.lastWriter)
			for _, rd := range h.readers {
				dep(rd)
			}
			for _, c := range h.commuters {
				dep(c)
			}
			h.readers = h.readers[:0]
			h.commuters = h.commuters[:0]
			h.lastWriter = id
		}
	}
	for _, d := range deps {
		r.declare(d, id)
	}
}

func (r *refGraph) declare(from, to int64) {
	r.succs[from] = append(r.succs[from], to)
	r.preds[to] = append(r.preds[to], from)
}

// buildFuzzGraph decodes data into a task sequence and builds it both
// into a Graph and into the reference. The first byte picks the handle
// count; then each task is a header byte (low two bits: number of
// accesses; next two: 0 joins the open batch, 1 starts a new batch, 2
// is a lone Submit, 3 is a lone Submit followed by a Declare onto it)
// and one byte per access (handle, mode).
func buildFuzzGraph(data []byte) (*Graph, *refGraph) {
	if len(data) == 0 {
		return NewGraph(), newRefGraph(0)
	}
	nh := 1 + int(data[0]%6)
	data = data[1:]
	g := NewGraph()
	hs := make([]*DataHandle, nh)
	for i := range hs {
		hs[i] = g.NewData(fmt.Sprint("h", i), 8)
	}
	ref := newRefGraph(nh)
	var batch []TaskSpec
	flush := func() {
		g.SubmitBatch(batch)
		batch = nil
	}
	for len(data) > 0 {
		head := data[0]
		data = data[1:]
		k := min(int(head%4), len(data))
		acc := make([]Access, k)
		for i := range acc {
			c := data[i]
			acc[i] = Access{Handle: hs[int(c)%nh], Mode: AccessMode(1 + (c>>4)%4)}
		}
		data = data[k:]
		ref.submit(acc)
		switch op := (head >> 2) % 4; op {
		case 0, 1:
			if op == 1 {
				flush()
			}
			batch = append(batch, TaskSpec{Kind: "k", Cost: []float64{1}, Accesses: acc})
		default:
			flush()
			to := g.Submit(&Task{Kind: "k", Cost: []float64{1}, Accesses: acc})
			if op == 3 && to.ID > 0 {
				from := g.Tasks[int(head>>4)%int(to.ID)]
				g.Declare(from, to)
				ref.declare(from.ID, to.ID)
			}
		}
	}
	flush()
	return g, ref
}

// FuzzInference checks the batch edge windows, reader slab and Declare
// against the per-edge-append reference for random R/W/RW/Commute
// access sequences cut into random batches: every task's Preds and
// Succs must match in content and order.
func FuzzInference(f *testing.F) {
	f.Add([]byte{2, 1, 0x00, 1, 0x11, 0x06, 0x20, 0x31, 5, 0x10, 0x31})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		b := make([]byte, 16+rng.Intn(240))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, ref := buildFuzzGraph(data)
		if len(g.Tasks) != len(ref.preds) {
			t.Fatalf("%d tasks, reference has %d", len(g.Tasks), len(ref.preds))
		}
		for i, task := range g.Tasks {
			if task.ID != int64(i) {
				t.Fatalf("task %d has ID %d", i, task.ID)
			}
			if got := predIDs(g, task); !slices.Equal(got, ref.preds[i]) {
				t.Fatalf("task %d preds %v, reference %v", i, got, ref.preds[i])
			}
			if got := succIDs(task); !slices.Equal(got, ref.succs[i]) {
				t.Fatalf("task %d succs %v, reference %v", i, got, ref.succs[i])
			}
			if task.NumPreds() != len(ref.preds[i]) || int(task.remaining.Load()) != len(ref.preds[i]) {
				t.Fatalf("task %d counts %d/%d preds, reference %d",
					i, task.NumPreds(), task.remaining.Load(), len(ref.preds[i]))
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

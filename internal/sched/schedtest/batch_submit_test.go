package schedtest

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"multiprio/internal/apps/dense"
	"multiprio/internal/apps/fmm"
	"multiprio/internal/apps/randdag"
	"multiprio/internal/apps/sparseqr"
	"multiprio/internal/runtime"
)

// rebuildSequential replays a built graph through the sequential Submit
// path: handles recreated in registration order, tasks re-submitted one
// by one with accesses remapped onto the fresh handles. SubmitBatch
// documents that a batch schedules byte-identically to the equivalent
// Submit sequence; this is the replay that pins it. (Explicit Declare
// edges are not replayed — the conformance workloads express every
// dependency through data accesses.)
func rebuildSequential(g *runtime.Graph) *runtime.Graph {
	seq := runtime.NewGraph()
	handles := make([]*runtime.DataHandle, len(g.Handles))
	for i, h := range g.Handles {
		handles[i] = seq.NewDataOn(h.Name, h.Bytes, h.Home)
	}
	for _, t := range g.Tasks {
		acc := make([]runtime.Access, len(t.Accesses))
		for i, a := range t.Accesses {
			acc[i] = runtime.Access{Handle: handles[a.Handle.ID], Mode: a.Mode}
		}
		seq.Submit(&runtime.Task{
			Kind:      t.Kind,
			Footprint: t.Footprint,
			Flops:     t.Flops,
			Priority:  t.Priority,
			Accesses:  acc,
			Cost:      t.Cost,
			Run:       t.Run,
			Tag:       t.Tag,
		})
	}
	return seq
}

// rebuildBatches replays a built graph through SubmitBatch in batches
// of at most size tasks, handles recreated in registration order.
func rebuildBatches(g *runtime.Graph, size int) *runtime.Graph {
	out := runtime.NewGraph()
	handles := make([]*runtime.DataHandle, len(g.Handles))
	for i, h := range g.Handles {
		handles[i] = out.NewDataOn(h.Name, h.Bytes, h.Home)
	}
	for lo := 0; lo < len(g.Tasks); lo += size {
		hi := min(lo+size, len(g.Tasks))
		specs := make([]runtime.TaskSpec, 0, hi-lo)
		for _, t := range g.Tasks[lo:hi] {
			acc := make([]runtime.Access, len(t.Accesses))
			for i, a := range t.Accesses {
				acc[i] = runtime.Access{Handle: handles[a.Handle.ID], Mode: a.Mode}
			}
			specs = append(specs, runtime.TaskSpec{
				Kind: t.Kind, Footprint: t.Footprint, Flops: t.Flops, Priority: t.Priority,
				Accesses: acc, Cost: t.Cost, Run: t.Run, Tag: t.Tag,
			})
		}
		out.SubmitBatch(specs)
	}
	return out
}

// sameStructure reports the first task whose Preds or Succs differ
// between a and b, element by element and in order.
func sameStructure(a, b *runtime.Graph) error {
	if len(a.Tasks) != len(b.Tasks) {
		return fmt.Errorf("%d tasks vs %d", len(a.Tasks), len(b.Tasks))
	}
	ids := func(ts []*runtime.Task) []int64 {
		out := make([]int64, len(ts))
		for i, t := range ts {
			out[i] = t.ID
		}
		return out
	}
	for i, ta := range a.Tasks {
		tb := b.Tasks[i]
		if pa, pb := ids(a.Preds(ta)), ids(b.Preds(tb)); !slices.Equal(pa, pb) {
			return fmt.Errorf("task %d preds %v vs %v", i, pa, pb)
		}
		if sa, sb := ids(ta.Succs()), ids(tb.Succs()); !slices.Equal(sa, sb) {
			return fmt.Errorf("task %d succs %v vs %v", i, sa, sb)
		}
	}
	return nil
}

// TestSubmitBatchSameStructure checks that a graph built in one batch,
// built in several batches, and built by a Submit loop have the same
// Preds and Succs for every task, in the same order: SubmitBatch lays
// edges out in per-batch windows, and this is the contract they keep.
func TestSubmitBatchSameStructure(t *testing.T) {
	m := conformanceMachine()
	dp := dense.Params{Tiles: 6, TileSize: 256, Machine: m}
	workloads := []struct {
		name  string
		build func() *runtime.Graph
	}{
		{"potrf", func() *runtime.Graph { return dense.Cholesky(dp) }},
		{"getrf", func() *runtime.Graph { return dense.LU(dp) }},
		{"geqrf", func() *runtime.Graph { return dense.QR(dp) }},
		{"randdag", func() *runtime.Graph {
			return randdag.Build(randdag.Params{Layers: 12, Width: 15, CommuteShare: 0.3,
				TypedFraction: 0.5, Machine: m, Seed: 29})
		}},
		{"sparseqr", func() *runtime.Graph {
			stats, ok := sparseqr.ByName("cat_ears_4_4")
			if !ok {
				t.Fatal("sparseqr: matrix cat_ears_4_4 missing")
			}
			return sparseqr.Build(stats, sparseqr.Params{Machine: m, PanelWidth: 512, RowBlock: 4096})
		}},
		{"fmm", func() *runtime.Graph {
			return fmm.Build(fmm.Params{Particles: 2000, Height: 3, GroupSize: 8,
				Clustered: true, UseCommute: true, Machine: m, Seed: 5})
		}},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			batch := w.build()
			seq := rebuildSequential(batch)
			if err := sameStructure(batch, seq); err != nil {
				t.Fatalf("SubmitBatch vs Submit loop: %v", err)
			}
			for _, size := range []int{1, 2, 7, 64} {
				if err := sameStructure(rebuildBatches(batch, size), seq); err != nil {
					t.Fatalf("batches of %d vs Submit loop: %v", size, err)
				}
			}
		})
	}
}

// TestSubmitBatchMatchesSequential runs every conformance workload —
// all four now built through Graph.SubmitBatch — against a sequential
// re-submission of the same tasks, across the full 8-policy matrix, and
// requires byte-identical canonical traces. Together with the golden
// digests (recorded when the apps still used sequential Submit) this
// proves the batch path changes nothing but the allocation count.
func TestSubmitBatchMatchesSequential(t *testing.T) {
	m := conformanceMachine()
	for _, w := range conformanceWorkloads(m) {
		for _, pol := range policies {
			w, pol := w, pol
			t.Run(w.name+"/"+pol.name, func(t *testing.T) {
				t.Parallel()
				opts := []runtime.Option{runtime.WithSeed(23), runtime.WithMemEvents()}
				batch := w.build()
				resBatch, err := runSim(m, batch, pol.mk(), opts...)
				if err != nil {
					t.Fatalf("batch-built run: %v", err)
				}
				seq := rebuildSequential(batch)
				resSeq, err := runSim(m, seq, pol.mk(), opts...)
				if err != nil {
					t.Fatalf("sequential rebuild run: %v", err)
				}
				if !bytes.Equal(resBatch.Trace.Canonical(), resSeq.Trace.Canonical()) {
					t.Fatalf("canonical traces diverge between SubmitBatch and sequential Submit")
				}
			})
		}
	}
}

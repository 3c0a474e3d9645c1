package schedtest

import (
	"bytes"
	"testing"

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

// Package randdag generates layered random task graphs in the spirit of
// the STG benchmark suite (Tobita & Kasahara): configurable width,
// depth, edge density, architecture-affinity mix and granularity
// spread. The paper's applications cover three structured DAG families;
// random graphs complement them as a robustness check — a scheduler
// that only wins on structured DAGs has overfit.
package randdag

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// Params configures one random DAG.
type Params struct {
	// Layers and Width shape the graph: Width tasks per layer.
	Layers, Width int
	// EdgeProb is the probability of a dependency from a task to each
	// task of the next layer (via shared data handles). Defaults 0.25.
	EdgeProb float64
	// GPUShare is the fraction of tasks with a (strongly accelerated)
	// GPU implementation; the rest are CPU-only. Defaults 0.5.
	GPUShare float64
	// GranularitySpread is the ratio between the largest and smallest
	// task costs (log-uniform). Defaults 10.
	GranularitySpread float64
	// CommuteShare is the fraction of tasks that additionally update a
	// shared accumulator handle in Commute mode (TBFMM-style force
	// reductions), exercising the engines' execution-time mutual
	// exclusion. Default 0.
	CommuteShare float64
	// TypedFraction restricts a fraction of the accelerated tasks to the
	// GPU class alone (TypedDAG-style affinity constraints): a typed task
	// loses its CPU implementation, so only GPU workers are capable and
	// every scheduler must honor the mask. Default 0 — and like
	// CommuteShare, 0 draws no extra randoms, leaving existing seeds'
	// graphs untouched.
	TypedFraction float64
	// MeanCost is the average CPU execution time in seconds. Defaults
	// 5 ms.
	MeanCost float64
	Machine  *platform.Machine
	Seed     int64
}

func (p Params) defaults() Params {
	if p.EdgeProb <= 0 {
		p.EdgeProb = 0.25
	}
	if p.GPUShare < 0 {
		p.GPUShare = 0
	} else if p.GPUShare == 0 {
		p.GPUShare = 0.5
	}
	if p.GranularitySpread < 1 {
		p.GranularitySpread = 10
	}
	if p.MeanCost <= 0 {
		p.MeanCost = 5e-3
	}
	return p
}

// Build generates the graph. Deterministic per seed.
func Build(p Params) *runtime.Graph {
	if p.Machine == nil {
		panic("randdag: nil machine")
	}
	if p.Layers < 1 || p.Width < 1 {
		panic(fmt.Sprintf("randdag: %d layers x %d width", p.Layers, p.Width))
	}
	p = p.defaults()
	rng := rand.New(rand.NewSource(p.Seed))
	n := p.Layers * p.Width
	nh := n
	if p.CommuteShare > 0 {
		nh++
	}
	g := runtime.NewGraphWithCapacity(n, nh)

	// Commuting tasks all update one shared accumulator; created lazily
	// so CommuteShare == 0 leaves the random stream of existing seeds
	// untouched.
	var accum *runtime.DataHandle
	if p.CommuteShare > 0 {
		accum = g.NewData("acc", 4096)
	}

	// One output handle per task; an edge is expressed as the consumer
	// reading the producer's output. The names "d<l>.<i>" are sliced
	// from one string instead of formatted one by one.
	nameBuf := make([]byte, 0, n*(2+len(strconv.Itoa(p.Layers-1))+len(strconv.Itoa(p.Width-1))))
	for l := 0; l < p.Layers; l++ {
		for i := 0; i < p.Width; i++ {
			nameBuf = appendName(nameBuf, l, i)
		}
	}
	names := string(nameBuf)
	var tmp [48]byte
	outs := make([][]*runtime.DataHandle, p.Layers)
	for l := range outs {
		outs[l] = make([]*runtime.DataHandle, p.Width)
		for i := range outs[l] {
			k := len(appendName(tmp[:0], l, i))
			outs[l][i] = g.NewData(names[:k], int64(rng.Intn(1<<20)+4096))
			names = names[k:]
		}
	}

	// Specs are generated up front (same RNG draw order as the former
	// per-task Submit loop) and submitted in one batch. Each task's Cost
	// is a capped window of one flat array and its Accesses a capped
	// window of the current access chunk, so neither costs an
	// allocation per task.
	specs := make([]runtime.TaskSpec, 0, n)
	na := len(p.Machine.Archs)
	costs := make([]float64, n*na)
	maxAcc := p.Width + 2 // own output, every input, the accumulator
	var accBuf []runtime.Access
	spreadLog := math.Log(p.GranularitySpread)
	for l := 0; l < p.Layers; l++ {
		for i := 0; i < p.Width; i++ {
			// Log-uniform cost in [mean/sqrt(spread), mean*sqrt(spread)].
			f := math.Exp((rng.Float64() - 0.5) * spreadLog)
			cpu := p.MeanCost * f
			cost := costs[:na:na]
			costs = costs[na:]
			cost[platform.ArchCPU] = cpu
			kind := "host"
			if int(platform.ArchGPU) < na && rng.Float64() < p.GPUShare {
				// 10-40x accelerated, plus a launch floor.
				cost[platform.ArchGPU] = cpu/(10+30*rng.Float64()) + 1e-5
				kind = "accel"
				if p.TypedFraction > 0 && rng.Float64() < p.TypedFraction {
					cost[platform.ArchCPU] = 0 // GPU-only: CPU not capable
					kind = "typed"
				}
			}
			if cap(accBuf)-len(accBuf) < maxAcc {
				accBuf = make([]runtime.Access, 0, max(accChunk, maxAcc))
			}
			first := len(accBuf)
			accBuf = append(accBuf, runtime.Access{Handle: outs[l][i], Mode: runtime.W})
			if l > 0 {
				for j := 0; j < p.Width; j++ {
					if rng.Float64() < p.EdgeProb {
						accBuf = append(accBuf, runtime.Access{Handle: outs[l-1][j], Mode: runtime.R})
					}
				}
			}
			if accum != nil && rng.Float64() < p.CommuteShare {
				accBuf = append(accBuf, runtime.Access{Handle: accum, Mode: runtime.Commute})
			}
			specs = append(specs, runtime.TaskSpec{
				Kind:      kind,
				Footprint: uint64(10 * math.Round(cpu*1e4)), // bucketed by size
				Flops:     cpu * 1e9,
				Cost:      cost,
				Accesses:  accBuf[first:len(accBuf):len(accBuf)],
				Priority:  rng.Intn(100),
			})
		}
	}
	g.SubmitBatch(specs)
	return g
}

// accChunk is the number of Access entries per access chunk (64 KiB).
const accChunk = 4096

// appendName appends the name of layer l's i-th output handle, d<l>.<i>.
func appendName(b []byte, l, i int) []byte {
	b = append(b, 'd')
	b = strconv.AppendInt(b, int64(l), 10)
	b = append(b, '.')
	return strconv.AppendInt(b, int64(i), 10)
}

// Package stream is the online-ingestion layer of the runtime: instead
// of building a full DAG and running it (batch mode), tasks arrive over
// engine time — virtual seconds on the simulator, wall-clock seconds on
// the threaded engine — from N concurrent tenants, as a long-running
// scheduler service would see them.
//
// The pieces, each usable on its own:
//
//   - Plan: the per-task arrival schedule plus the tenant partition and
//     per-tenant admission limits. Engines honor Plan.Arrivals through
//     runtime.WithArrivals: a task is never
//     offered to the scheduler before its arrival instant.
//   - ArrivalSpec / Plan.Generate: a seed-driven arrival process
//     (uniform, Poisson, bursty) built on splitmix64 — the repository's
//     standard seeding primitive — with one independent stream per
//     tenant, so the same seed always yields the same schedule and one
//     tenant's parameters never perturb another's arrivals.
//   - Fair: a scheduler wrapper layered over any registry policy that
//     adds per-tenant submission queues with admission control and
//     backpressure (bounded in-flight tasks per tenant), so a heavy
//     tenant cannot flood the underlying policy's queues.
//   - Combine: merges per-tenant subgraphs into one multi-tenant DAG,
//     replaying each tenant's STF submissions into a shared graph.
//
// The oracle's StreamCheck (internal/oracle) validates streaming runs:
// per-tenant exactly-once, no task starts before its arrival, per-tenant
// concurrency never exceeds the admission limit, and admission-log
// replay proving no cross-tenant starvation — a task is delayed only
// while its own tenant sits at its in-flight bound, never because
// another tenant cut the line.
package stream

import (
	"fmt"
	"math"

	"multiprio/internal/runtime"
)

// Plan describes one streaming run over a (possibly combined) graph:
// which tenant submitted each task, when it arrives, and how many tasks
// each tenant may have in flight.
type Plan struct {
	// TenantOf maps task ID -> tenant index. Task IDs are dense
	// submission-order integers, so a slice suffices.
	TenantOf []int
	// Arrivals is the per-task submission time, indexed by task ID.
	// Nil (or all zeros) means every task is available at t=0 — batch
	// mode, byte-identical to a run without a plan.
	Arrivals []float64
	// Limits is the per-tenant admission bound: at most Limits[k] tasks
	// of tenant k may be in flight (admitted to the inner policy and
	// not yet completed) at once. 0 means unbounded.
	Limits []int
	// Names are optional tenant labels for reports; Tenant k defaults
	// to "t<k>".
	Names []string
}

// NewPlan builds a plan skeleton over an explicit tenant partition:
// zero arrivals, unbounded admission. tenants is the tenant count;
// every entry of tenantOf must be in [0, tenants).
func NewPlan(tenantOf []int, tenants int) *Plan {
	return &Plan{
		TenantOf: tenantOf,
		Arrivals: make([]float64, len(tenantOf)),
		Limits:   make([]int, tenants),
	}
}

// SplitEven partitions n tasks over tenants contiguous blocks of task
// IDs (block k gets the k-th slice of submission order) and returns the
// plan skeleton. It is the single-graph analogue of Combine: tests that
// stream an existing workload use it to impose a tenant structure.
func SplitEven(n, tenants int) *Plan {
	if tenants < 1 {
		tenants = 1
	}
	tenantOf := make([]int, n)
	per := (n + tenants - 1) / tenants
	if per < 1 {
		per = 1
	}
	for i := range tenantOf {
		k := i / per
		if k >= tenants {
			k = tenants - 1
		}
		tenantOf[i] = k
	}
	return NewPlan(tenantOf, tenants)
}

// NumTenants returns the tenant count of the plan.
func (p *Plan) NumTenants() int { return len(p.Limits) }

// Tenant returns the tenant index of task id.
func (p *Plan) Tenant(id int64) int { return p.TenantOf[id] }

// Limit returns the admission bound of tenant k (0 = unbounded).
func (p *Plan) Limit(k int) int { return p.Limits[k] }

// Name returns the label of tenant k.
func (p *Plan) Name(k int) string {
	if k < len(p.Names) && p.Names[k] != "" {
		return p.Names[k]
	}
	return fmt.Sprintf("t%d", k)
}

// TasksOf returns how many tasks each tenant owns.
func (p *Plan) TasksOf() []int {
	counts := make([]int, p.NumTenants())
	for _, k := range p.TenantOf {
		counts[k]++
	}
	return counts
}

// Validate checks the plan against the graph it will stream: full task
// coverage, valid tenant indices, finite non-negative arrival times and
// non-negative limits.
func (p *Plan) Validate(g *runtime.Graph) error {
	if p == nil {
		return fmt.Errorf("stream: nil plan")
	}
	if len(p.TenantOf) != len(g.Tasks) {
		return fmt.Errorf("stream: plan covers %d tasks, graph has %d", len(p.TenantOf), len(g.Tasks))
	}
	if p.NumTenants() < 1 {
		return fmt.Errorf("stream: plan has no tenants")
	}
	for id, k := range p.TenantOf {
		if k < 0 || k >= p.NumTenants() {
			return fmt.Errorf("stream: task %d assigned to invalid tenant %d (have %d)", id, k, p.NumTenants())
		}
	}
	if p.Arrivals != nil {
		if len(p.Arrivals) != len(g.Tasks) {
			return fmt.Errorf("stream: arrival schedule covers %d tasks, graph has %d", len(p.Arrivals), len(g.Tasks))
		}
		for id, at := range p.Arrivals {
			if at < 0 || math.IsNaN(at) || math.IsInf(at, 0) {
				return fmt.Errorf("stream: task %d has invalid arrival time %g", id, at)
			}
		}
	}
	for k, lim := range p.Limits {
		if lim < 0 {
			return fmt.Errorf("stream: tenant %d has negative admission limit %d", k, lim)
		}
	}
	return nil
}

// rng is splitmix64 (Steele et al.), the repository's standard seeding
// primitive, duplicated here because internal/fault keeps its copy
// unexported and the two packages must stay independently evolvable.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// f64 returns a uniform float in [0, 1).
func (r *rng) f64() float64 { return float64(r.next()>>11) / (1 << 53) }

// tenantRNG returns the independent splitmix64 stream of tenant k: the
// state depends only on (seed, k), never on another tenant's draws, so
// changing tenant j's parameters cannot shift tenant k's arrivals.
func tenantRNG(seed uint64, k int) rng {
	return rng{s: seed ^ (uint64(k)+1)*0xbf58476d1ce4e5b9}
}

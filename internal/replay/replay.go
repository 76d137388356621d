// Package replay separates the expensive part of a simulation — dependence
// tracking, scheduling, mutex handoffs between worker goroutines — from the
// cheap part: stochastic re-execution of a fixed task graph. A Recorder
// (capture.go) records the fully-resolved task DAG from one instrumented
// scheduler run; Run then re-simulates that DAG under any duration model,
// worker count and seed via single-goroutine virtual-time list scheduling.
//
// This is the paper's design-space-exploration use case (Section VI-B) made
// cheap: the DAG of a tile algorithm does not depend on the duration model,
// the seed, or the worker count, so re-running the scheduler for every
// repetition of a sweep point repeats work whose outcome is already known.
// Replay preserves the ordering guarantees the paper's Task Execution Queue
// provides (tasks complete in virtual-time order, successors are released
// before any later completion advances the clock) because the loop below is
// exactly that protocol with the scheduler's bookkeeping compiled away; see
// DESIGN.md §9 for the equivalence argument and its limits (insertion
// windows, end-time ties).
package replay

import (
	"fmt"
	"sync"
	"sync/atomic"

	"supersim/internal/core"
	"supersim/internal/hazard"
	"supersim/internal/pq"
	"supersim/internal/rng"
	"supersim/internal/sched"
	"supersim/internal/trace"
)

// Footprint is one declared data access of a captured task, with the
// original opaque handle renamed to a dense 0-based index.
type Footprint struct {
	Handle int
	Mode   hazard.Access
}

// Task is one node of a captured DAG.
type Task struct {
	// ID is the serial insertion index (dense, 0-based).
	ID int
	// Class, Label, Priority, Where and NumThreads mirror the inserted
	// sched.Task.
	Class      string
	Label      string
	Priority   int
	Where      sched.Where
	NumThreads int
	// Footprint is the argument list under dense handle renaming.
	Footprint []Footprint
	// Deps are the resolved dependence edges the hazard tracker derived at
	// insertion (deduplicated, strongest kind per predecessor), in the
	// tracker's derivation order.
	Deps []sched.Dep
	// Ready is the task's position in the capture run's ready order, or -1
	// if the capture ended before the task became ready. It is recorded
	// and encoded for inspection; the replay executor re-derives readiness
	// from Deps.
	Ready int
	// Duration is the observed virtual duration from the capture run's
	// completion hook, or -1 when the capture ran without a simulator.
	Duration float64
}

// DAG is a captured task graph: the complete input of a replay. Run only
// reads it, so one DAG may be replayed from any number of goroutines
// concurrently — the sweep driver shards replicas over a shared DAG, and
// the simulation service's capture cache serves one DAG to every job that
// hits its key. Do not mutate a DAG once it is shared, and in particular
// not after its first Run or Arena call: replays execute the memoized
// struct-of-arrays compilation (arena.go), which snapshots the tasks.
type DAG struct {
	// Label names the graph (trace labels derive from it).
	Label string
	// Workers is the capture run's worker count (the default replay width).
	Workers int
	// Handles is the number of distinct data handles in the footprints.
	Handles int
	// Tasks holds the nodes in serial insertion order.
	Tasks []Task

	arenaMu sync.Mutex // serializes the first compilation
	arena   atomic.Pointer[Arena]
}

// NumEdges returns the total resolved dependence edge count.
func (d *DAG) NumEdges() int {
	n := 0
	for _, t := range d.Tasks {
		n += len(t.Deps)
	}
	return n
}

// Validate checks the DAG's internal consistency: dense task ids,
// predecessors strictly earlier than their successors, in-range handles,
// and — the substantive check — that re-deriving the dependences from the
// footprints with a fresh hazard tracker reproduces the captured edges
// exactly. A DAG that round-trips Validate is a faithful record of what
// the scheduler resolved.
func (d *DAG) Validate() error {
	tracker := hazard.NewTracker()
	var args []hazard.Arg
	for i := range d.Tasks {
		t := &d.Tasks[i]
		if t.ID != i {
			return fmt.Errorf("replay: task %d has id %d (ids must be dense)", i, t.ID)
		}
		args = args[:0]
		for _, f := range t.Footprint {
			if f.Handle < 0 || f.Handle >= d.Handles {
				return fmt.Errorf("replay: task %d references handle %d outside [0,%d)", i, f.Handle, d.Handles)
			}
			args = append(args, hazard.Arg{Handle: f.Handle, Mode: f.Mode})
		}
		_, deps := tracker.Insert(args)
		if len(deps) != len(t.Deps) {
			return fmt.Errorf("replay: task %d: footprint derives %d dependences, captured %d", i, len(deps), len(t.Deps))
		}
		for j, dep := range deps {
			if dep != t.Deps[j] {
				return fmt.Errorf("replay: task %d dependence %d: footprint derives %+v, captured %+v", i, j, dep, t.Deps[j])
			}
			if dep.Pred < 0 || dep.Pred >= i {
				return fmt.Errorf("replay: task %d depends on task %d (predecessors must precede)", i, dep.Pred)
			}
		}
	}
	if got := tracker.NumHandles(); got != d.Handles {
		return fmt.Errorf("replay: footprints reference %d handles, DAG declares %d", got, d.Handles)
	}
	return nil
}

// Options parameterizes one replay of a captured DAG.
type Options struct {
	// Workers is the virtual core count; 0 uses the capture run's.
	Workers int
	// Model supplies virtual durations. nil replays the capture run's
	// observed durations (every task must then carry one).
	Model core.DurationModel
	// Seed derives the per-worker sampling streams (same derivation as
	// core.NewTasker, so a 1-worker replay draws the sample sequence of
	// the direct simulation with the same seed).
	Seed uint64
	// Label overrides the trace label; "" uses DAG.Label + "-replay".
	Label string
	// IgnorePriorities orders ready tasks purely by readiness (FIFO),
	// mirroring runtimes built on sched.FIFOPolicy (OmpSs without the
	// priority clause, StarPU eager). The default mirrors
	// sched.PriorityPolicy: priority descending, readiness order as the
	// tiebreak — which degenerates to FIFO when no task sets a priority.
	IgnorePriorities bool
}

// seedMix mirrors core's per-worker stream derivation (rngPool): worker w
// samples from rng.New(seed ^ (seedMix * (w+1))). Keeping the formulas
// identical makes replay and direct simulation draw identical duration
// sequences for the same (seed, worker) pair.
const seedMix = 0x9e3779b97f4a7c15

// readyItem is one entry of the serial executor's ready heap.
type readyItem struct {
	id   int32
	prio int32
	seq  int32
}

// runEntry is one entry of the serial executor's replay Task Execution
// Queue: completions are processed in (end, start order).
type runEntry struct {
	end    float64
	seq    uint64
	start  float64
	id     int32
	worker int32
}

// serialScratch is the reusable per-run state of the serial executor:
// the wait-count column and the three scheduling heaps, pooled so
// steady-state replay allocates only the returned trace (the
// alloc-ceiling test pins this at ≤ 2 allocs). Successor lists live in
// the immutable arena now; only genuinely per-run state remains here.
// The per-worker rng Sources are retained and reseeded per run.
type serialScratch struct {
	waits   []int32
	seeded  []bool // per-worker: source reseeded this run
	sources []*rng.Source
	ready   *pq.Heap[readyItem]
	running *pq.Heap[runEntry]
	free    *pq.Heap[int32]
}

var serialPool = sync.Pool{New: func() any {
	return &serialScratch{
		ready: pq.New(func(a, b readyItem) bool {
			if a.prio != b.prio {
				return a.prio > b.prio // higher priority first (PriorityPolicy)
			}
			return a.seq < b.seq // FIFO tiebreak
		}),
		running: pq.New(func(a, b runEntry) bool {
			if a.end != b.end {
				return a.end < b.end
			}
			return a.seq < b.seq
		}),
		free: pq.New(func(a, b int32) bool { return a < b }),
	}
}}

// growInt32 returns buf with length n, reusing capacity when possible.
// Contents are unspecified; callers overwrite every element they read.
func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// checkTask rejects tasks the replay executor cannot represent.
func checkTask(i int, t *Task) error {
	if t.NumThreads > 1 {
		return fmt.Errorf("replay: task %d (%s) is a gang task (NumThreads=%d); replay supports single-threaded tasks", i, t.Label, t.NumThreads)
	}
	if !t.Where.Allows(sched.KindCPU) {
		return fmt.Errorf("replay: task %d (%s) cannot run on CPU workers (Where=%#x)", i, t.Label, t.Where)
	}
	return nil
}

// Run re-simulates the captured DAG by greedy virtual-time list
// scheduling, the schedule the real engine produces for an unbounded
// insertion window (see DESIGN.md §9):
//
//   - a task becomes ready when all its captured predecessors completed;
//   - ready tasks are ordered by (priority desc, readiness order) — the
//     engine's PriorityPolicy ordering, degenerating to FIFO when no task
//     sets a priority;
//   - a running task's completion is processed in (end time, start order)
//     sequence — the Task Execution Queue ordering — and its successors
//     are released before any later completion advances the clock;
//   - a completing task hands its worker straight to the best ready task
//     (one pq.ReplaceTop on the running heap instead of a Pop+Push pair);
//     remaining ready tasks go to the lowest-index free workers.
//
// The whole loop runs on the calling goroutine: no scheduler, no hazard
// tracking, no mutex handoffs. Identical (DAG, Options) inputs produce
// bit-identical traces.
//
// Run compiles the DAG to its struct-of-arrays arena on first use
// (memoized — see DAG.Arena) and executes that: the hot loop lives in
// arena.go.
func Run(d *DAG, opt Options) (*trace.Trace, error) {
	if len(d.Tasks) == 0 {
		return nil, fmt.Errorf("replay: empty DAG")
	}
	a, err := d.Arena()
	if err != nil {
		return nil, err
	}
	return RunArena(a, opt)
}

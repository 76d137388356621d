// Package perf provides lightweight contention and hot-path counters for
// the simulation library and the runtime engine.
//
// The paper's headline performance claim (Section VII) is that the
// simulation is itself parallel and can outrun the real execution; whether
// that holds in practice is decided on the hot paths — how often workers
// are woken for nothing, how often the Task Execution Queue front has to
// park for scheduler bookkeeping, and how long the global locks are held.
// Counters makes those quantities observable with plain atomic increments
// so the instrumented paths stay race-free and cheap; a nil *Counters
// disables collection entirely (every call site guards on nil).
package perf

import (
	"fmt"
	"strings"
	"sync/atomic"

	"supersim/internal/stopwatch"
)

// Counters aggregates hot-path events. All fields are atomics: producers
// (workers, the master, the simulator) increment concurrently without
// locks, and Snapshot reads a consistent-enough point-in-time view for
// reporting. The zero value is ready to use.
type Counters struct {
	// TargetedWakeups counts single-worker signals issued when the
	// engine's dispatcher handed a parked worker a task or a gang rank.
	TargetedWakeups atomic.Uint64
	// CollectiveWakeups counts wake-everyone events (shutdown, abort, the
	// final drain) — the paths where a broadcast is still the correct
	// tool.
	CollectiveWakeups atomic.Uint64
	// SpuriousWakeups counts times a parked worker was woken and found no
	// claimable work. Persistent growth means wakeups are mistargeted.
	SpuriousWakeups atomic.Uint64

	// FrontHandoffs counts Task Execution Queue front-of-queue handoff
	// signals (a completing task waking exactly the new front entry).
	FrontHandoffs atomic.Uint64
	// FrontParks counts tasks that parked waiting to reach the queue
	// front (as opposed to arriving at an empty queue and proceeding).
	FrontParks atomic.Uint64
	// QuiescenceParks counts front tasks that parked on the runtime's
	// bookkeeping condvar instead of spinning (WaitQuiescence policy).
	QuiescenceParks atomic.Uint64
	// QuiescenceSpins counts fallback unlock-yield-relock spins for
	// runtimes that expose no parking facility.
	QuiescenceSpins atomic.Uint64
	// QuiescenceKicks counts engine state transitions that woke at least
	// one parked quiescence waiter.
	QuiescenceKicks atomic.Uint64

	// TasksExecuted counts completed Task Execution Queue protocols.
	TasksExecuted atomic.Uint64
	// TraceMerges counts deterministic merges of the per-worker trace
	// buffers into the final trace.
	TraceMerges atomic.Uint64

	// Lock-hold hot spots: cumulative nanoseconds and acquisition counts
	// of the two widest critical sections. Only populated when timing is
	// enabled (SetTiming), because reading the clock twice per task is
	// itself a measurable cost.
	InsertHoldNS  atomic.Int64
	InsertHolds   atomic.Uint64
	ExecuteHoldNS atomic.Int64
	ExecuteHolds  atomic.Uint64

	timing atomic.Bool
}

// SetTiming enables or disables lock-hold timing (disabled by default).
func (c *Counters) SetTiming(on bool) { c.timing.Store(on) }

// Timing reports whether lock-hold timing is enabled.
func (c *Counters) Timing() bool { return c.timing.Load() }

// noop is the shared disabled-timer closure (no per-call allocation).
var noop = func() {}

// InsertTimer starts timing the engine's insertion critical section.
// Usage: stop := c.InsertTimer(); ...; stop(). Nil-safe; a no-op (and no
// clock read) unless timing is enabled.
func (c *Counters) InsertTimer() func() {
	if c == nil || !c.timing.Load() {
		return noop
	}
	elapsed := stopwatch.StartNS()
	return func() {
		c.InsertHoldNS.Add(elapsed())
		c.InsertHolds.Add(1)
	}
}

// ExecuteTimer starts timing the simulator's queue critical section.
// Nil-safe; a no-op unless timing is enabled.
func (c *Counters) ExecuteTimer() func() {
	if c == nil || !c.timing.Load() {
		return noop
	}
	elapsed := stopwatch.StartNS()
	return func() {
		c.ExecuteHoldNS.Add(elapsed())
		c.ExecuteHolds.Add(1)
	}
}

// Snapshot is a plain-value copy of the counters, safe to serialize.
type Snapshot struct {
	TargetedWakeups   uint64 `json:"targeted_wakeups"`
	CollectiveWakeups uint64 `json:"collective_wakeups"`
	SpuriousWakeups   uint64 `json:"spurious_wakeups"`
	FrontHandoffs     uint64 `json:"front_handoffs"`
	FrontParks        uint64 `json:"front_parks"`
	QuiescenceParks   uint64 `json:"quiescence_parks"`
	QuiescenceSpins   uint64 `json:"quiescence_spins"`
	QuiescenceKicks   uint64 `json:"quiescence_kicks"`
	TasksExecuted     uint64 `json:"tasks_executed"`
	TraceMerges       uint64 `json:"trace_merges"`
	InsertHoldNS      int64  `json:"insert_hold_ns,omitempty"`
	InsertHolds       uint64 `json:"insert_holds,omitempty"`
	ExecuteHoldNS     int64  `json:"execute_hold_ns,omitempty"`
	ExecuteHolds      uint64 `json:"execute_holds,omitempty"`
}

// Snapshot captures the current counter values. Safe to call while
// producers are still incrementing (each field is individually atomic).
func (c *Counters) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	return Snapshot{
		TargetedWakeups:   c.TargetedWakeups.Load(),
		CollectiveWakeups: c.CollectiveWakeups.Load(),
		SpuriousWakeups:   c.SpuriousWakeups.Load(),
		FrontHandoffs:     c.FrontHandoffs.Load(),
		FrontParks:        c.FrontParks.Load(),
		QuiescenceParks:   c.QuiescenceParks.Load(),
		QuiescenceSpins:   c.QuiescenceSpins.Load(),
		QuiescenceKicks:   c.QuiescenceKicks.Load(),
		TasksExecuted:     c.TasksExecuted.Load(),
		TraceMerges:       c.TraceMerges.Load(),
		InsertHoldNS:      c.InsertHoldNS.Load(),
		InsertHolds:       c.InsertHolds.Load(),
		ExecuteHoldNS:     c.ExecuteHoldNS.Load(),
		ExecuteHolds:      c.ExecuteHolds.Load(),
	}
}

// Sub returns the element-wise difference s - prev, for interval reporting.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	return Snapshot{
		TargetedWakeups:   s.TargetedWakeups - prev.TargetedWakeups,
		CollectiveWakeups: s.CollectiveWakeups - prev.CollectiveWakeups,
		SpuriousWakeups:   s.SpuriousWakeups - prev.SpuriousWakeups,
		FrontHandoffs:     s.FrontHandoffs - prev.FrontHandoffs,
		FrontParks:        s.FrontParks - prev.FrontParks,
		QuiescenceParks:   s.QuiescenceParks - prev.QuiescenceParks,
		QuiescenceSpins:   s.QuiescenceSpins - prev.QuiescenceSpins,
		QuiescenceKicks:   s.QuiescenceKicks - prev.QuiescenceKicks,
		TasksExecuted:     s.TasksExecuted - prev.TasksExecuted,
		TraceMerges:       s.TraceMerges - prev.TraceMerges,
		InsertHoldNS:      s.InsertHoldNS - prev.InsertHoldNS,
		InsertHolds:       s.InsertHolds - prev.InsertHolds,
		ExecuteHoldNS:     s.ExecuteHoldNS - prev.ExecuteHoldNS,
		ExecuteHolds:      s.ExecuteHolds - prev.ExecuteHolds,
	}
}

// Add returns the element-wise sum s + other, for aggregating the
// counters of multiple runs (the simulation service sums per-run deltas
// into its service-lifetime totals this way).
func (s Snapshot) Add(other Snapshot) Snapshot {
	return Snapshot{
		TargetedWakeups:   s.TargetedWakeups + other.TargetedWakeups,
		CollectiveWakeups: s.CollectiveWakeups + other.CollectiveWakeups,
		SpuriousWakeups:   s.SpuriousWakeups + other.SpuriousWakeups,
		FrontHandoffs:     s.FrontHandoffs + other.FrontHandoffs,
		FrontParks:        s.FrontParks + other.FrontParks,
		QuiescenceParks:   s.QuiescenceParks + other.QuiescenceParks,
		QuiescenceSpins:   s.QuiescenceSpins + other.QuiescenceSpins,
		QuiescenceKicks:   s.QuiescenceKicks + other.QuiescenceKicks,
		TasksExecuted:     s.TasksExecuted + other.TasksExecuted,
		TraceMerges:       s.TraceMerges + other.TraceMerges,
		InsertHoldNS:      s.InsertHoldNS + other.InsertHoldNS,
		InsertHolds:       s.InsertHolds + other.InsertHolds,
		ExecuteHoldNS:     s.ExecuteHoldNS + other.ExecuteHoldNS,
		ExecuteHolds:      s.ExecuteHolds + other.ExecuteHolds,
	}
}

// PerTask normalizes a counter by the executed-task count; 0 when no task
// completed in the interval.
func (s Snapshot) PerTask(counter uint64) float64 {
	if s.TasksExecuted == 0 {
		return 0
	}
	return float64(counter) / float64(s.TasksExecuted)
}

// String renders a compact human-readable report.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tasks=%d wakeups: targeted=%d collective=%d spurious=%d",
		s.TasksExecuted, s.TargetedWakeups, s.CollectiveWakeups, s.SpuriousWakeups)
	fmt.Fprintf(&b, "; queue: handoffs=%d parks=%d qparks=%d qspins=%d qkicks=%d merges=%d",
		s.FrontHandoffs, s.FrontParks, s.QuiescenceParks, s.QuiescenceSpins, s.QuiescenceKicks, s.TraceMerges)
	if s.InsertHolds > 0 {
		fmt.Fprintf(&b, "; insert-hold=%.0fns/op", float64(s.InsertHoldNS)/float64(s.InsertHolds))
	}
	if s.ExecuteHolds > 0 {
		fmt.Fprintf(&b, "; execute-hold=%.0fns/op", float64(s.ExecuteHoldNS)/float64(s.ExecuteHolds))
	}
	return b.String()
}

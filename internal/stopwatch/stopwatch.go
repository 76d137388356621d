// Package stopwatch is the audited wall-clock boundary for the
// virtual-time packages.
//
// The simlint vclock analyzer forbids direct wall-clock APIs (time.Now,
// time.Sleep, ...) inside internal/core, internal/sched, internal/trace
// and internal/pq: those packages reason in simulated time, and a stray
// wall-clock read silently couples the virtual timeline to host speed.
// The few places that legitimately need real time — measuring a real
// kernel body in measured mode, a wall-clock retry backoff — go through
// this package instead, so every wall-time dependency of the virtual-time
// core is greppable in one spot and reviewed as such. (The watchdog and
// fault-injection paths live outside the virtual-time set and use package
// time directly.)
package stopwatch

import (
	"runtime"
	"time"
)

// Start begins timing a real computation and returns a function that
// reports the wall-clock seconds elapsed since the call. Measured mode
// uses it to account a genuine kernel execution on the virtual timeline.
func Start() func() float64 {
	t0 := time.Now()
	return func() float64 { return time.Since(t0).Seconds() }
}

// StartCPU begins timing a real computation by the CPU time of the calling
// goroutine and returns a function that reports the CPU seconds consumed
// since the call. Measured mode times kernel bodies with it: on the
// paper's machine every worker owns a core, so a kernel's wall time is its
// CPU time, while on a shared host the wall clock also counts the
// intervals the thread spent descheduled — another process's time slice,
// a preempted virtual CPU — and one such interval inflates a
// tens-of-microseconds kernel a hundredfold.
//
// The goroutine is locked to its OS thread until the returned function is
// called, so the thread's CPU clock is the goroutine's. Call the returned
// function exactly once, on the same goroutine. Where the platform has no
// thread CPU clock it measures wall time instead.
func StartCPU() func() float64 {
	runtime.LockOSThread()
	t0, ok := threadCPUNanos()
	if !ok {
		runtime.UnlockOSThread()
		return Start()
	}
	return func() float64 {
		t1, ok := threadCPUNanos()
		runtime.UnlockOSThread()
		if !ok || t1 < t0 {
			return 0
		}
		return float64(t1-t0) / 1e9
	}
}

// Sleep pauses the calling goroutine for d of wall-clock time. The
// engine's retry backoff uses it; simulated durations never do.
func Sleep(d time.Duration) { time.Sleep(d) }

// StartNS begins timing a real critical section and returns a function
// reporting the wall-clock nanoseconds elapsed since the call. The perf
// counters' lock-hold timers use it so the virtual-time packages that
// invoke them (simulator and engine hot paths) never touch package time
// directly — the simlint vclock analyzer checks that transitively.
func StartNS() func() int64 {
	t0 := time.Now()
	return func() int64 { return time.Since(t0).Nanoseconds() }
}

package stopwatch

import (
	"testing"
	"time"
)

func TestStartMeasuresElapsedWallTime(t *testing.T) {
	elapsed := Start()
	time.Sleep(10 * time.Millisecond)
	got := elapsed()
	if got < 0.005 {
		t.Fatalf("elapsed() = %v s after sleeping 10ms, want >= 0.005", got)
	}
	if got > 5 {
		t.Fatalf("elapsed() = %v s after sleeping 10ms, implausibly large", got)
	}
	if again := elapsed(); again < got {
		t.Fatalf("elapsed() went backwards: %v then %v", got, again)
	}
}

func TestSleepSleepsRoughlyD(t *testing.T) {
	elapsed := Start()
	Sleep(5 * time.Millisecond)
	if got := elapsed(); got < 0.002 {
		t.Fatalf("Sleep(5ms) returned after %v s, want >= 0.002", got)
	}
}

func TestStartCPUIgnoresDescheduledTime(t *testing.T) {
	if _, ok := threadCPUNanos(); !ok {
		t.Skip("no thread CPU clock on this platform: StartCPU measures wall time")
	}
	elapsed := StartCPU()
	time.Sleep(20 * time.Millisecond) // off-CPU: must not count
	if got := elapsed(); got > 0.010 {
		t.Fatalf("StartCPU counted %v s across a 20ms sleep, want the CPU time only", got)
	}
}

func TestStartCPUMeasuresBusyTime(t *testing.T) {
	elapsed := StartCPU()
	wall := Start()
	x := 1.0
	for wall() < 0.02 {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	got := elapsed()
	if got <= 0 || got > 5 {
		t.Fatalf("StartCPU measured %v s for a 20ms busy loop (x=%g)", got, x)
	}
}

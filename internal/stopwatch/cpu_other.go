//go:build !linux

package stopwatch

// threadCPUNanos reports that no thread CPU clock is available; StartCPU
// falls back to wall time.
func threadCPUNanos() (int64, bool) { return 0, false }

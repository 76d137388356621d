package stopwatch

import (
	"syscall"
	"unsafe"
)

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPUNanos reads the calling OS thread's CPU clock in nanoseconds.
func threadCPUNanos() (int64, bool) {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0, false
	}
	return ts.Nano(), true
}

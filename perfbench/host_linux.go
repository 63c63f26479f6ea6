package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// precisePacing pins the calling goroutine to its thread and drops the
// thread's timer slack from the kernel's 50 µs default to 1 ns, so
// pause wakes close to its deadline. The returned func undoes both.
func precisePacing() (restore func()) {
	runtime.LockOSThread()
	const prSetTimerslack, prGetTimerslack = 29, 30
	old, _, _ := syscall.RawSyscall(syscall.SYS_PRCTL, prGetTimerslack, 0, 0)
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0) //magellan:allow erridle — without it pause is only less precise
	return func() {
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, old, 0) //magellan:allow erridle — restoring a best-effort setting
		runtime.UnlockOSThread()
	}
}

// pause blocks the calling thread for about d. The runtime's timers
// wake at millisecond granularity on an idle process, which would make
// the open loop send in millisecond bursts; nanosleep wakes within
// microseconds. It is issued raw, outside the scheduler, so the thread
// keeps its P while asleep and never queues for one on waking; the
// cost is that a stop-the-world pause waits for the sleep to end.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.RawSyscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0) //magellan:allow erridle — an interrupted sleep only ends early; the loop re-reads the clock
}

// processCPU returns the CPU seconds (user + system) every thread of
// the process has used so far.
func processCPU() float64 { return rusage(syscall.RUSAGE_SELF) }

// threadCPU returns the CPU seconds the calling thread has used so far;
// callers lock the goroutine to its thread first.
func threadCPU() float64 { return rusage(syscall.RUSAGE_THREAD) }

func rusage(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)).Seconds()
}

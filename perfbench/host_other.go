//go:build !linux

package main

import "time"

func precisePacing() (restore func()) { return func() {} }

// pause blocks for about d.
func pause(d time.Duration) { time.Sleep(d) }

var processStart = time.Now()

// processCPU stands in with wall seconds since start where per-thread
// CPU time is not available, so a throughput per CPU second reads as
// one per wall second.
func processCPU() float64 { return time.Since(processStart).Seconds() }

func threadCPU() float64 { return 0 }

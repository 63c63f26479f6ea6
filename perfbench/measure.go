package main

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"github.com/magellan-p2p/magellan/internal/obs"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// runtimeCounters is a reading of the cumulative runtime/metrics
// counters the benchmark reports deltas of.
type runtimeCounters struct {
	allocBytes uint64
	gcCPU      float64
	gcCycles   uint64
}

var counterNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readCounters() runtimeCounters {
	s := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		gcCycles:   s[2].Value.Uint64(),
	}
}

// addRuntime records the allocation and GC work done between two
// readings.
func addRuntime(smp sample, from, to runtimeCounters) {
	smp["alloc_mib"] = float64(to.allocBytes-from.allocBytes) / (1 << 20)
	smp["runtime.gc_cpu_s"] = to.gcCPU - from.gcCPU
	smp["runtime.gc_cycles"] = float64(to.gcCycles - from.gcCycles)
}

// liveHeapMiB forces a collection and returns the live heap in MiB.
// Called once the clock has stopped, at the end of a workload's timed
// part, where its retained data peaks: the store, index, analyzer state
// and replay set only grow through the timed part. Garbage awaiting
// collection is left out, since its size follows the GC's timing rather
// than the program.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// memProbe times a dependent pointer chase over a 64 MiB cycle: fixed
// work whose speed tracks the host's memory latency, so host drift
// between runs can be told apart from a program change. It returns the
// mean nanoseconds per load. The result is reported only; no metric is
// ever rescaled by it.
func memProbe() float64 {
	const n = 16 << 20 // uint32 slots: 64 MiB
	const loads = 4 << 20
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's algorithm: one cycle through every slot.
	rng := rand.New(rand.NewSource(1))
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	start := time.Now()
	p := uint32(0)
	for i := 0; i < loads; i++ {
		p = next[p]
	}
	ns := float64(time.Since(start).Nanoseconds()) / loads
	runtime.KeepAlive(p)
	return ns
}

// cpuProbe times fixed arithmetic that stays in registers: a host whose
// clock or CPU share drifts shows here, one whose memory slows does
// not. It returns nanoseconds per step and, like memProbe, is reported
// only.
func cpuProbe() float64 {
	const steps = 32 << 20
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	ns := float64(time.Since(start).Nanoseconds()) / steps
	runtime.KeepAlive(x)
	return ns
}

// stageTracer is the benchmark's obs.Tracer: it only sums the wall time
// and count of the spans the analysis pipeline already emits. Spans
// from concurrent workers add up, so a leaf stage's total is busy time
// summed over workers.
type stageTracer struct {
	mu   sync.Mutex
	busy map[string]time.Duration
	n    map[string]int
}

func newStageTracer() *stageTracer {
	return &stageTracer{busy: make(map[string]time.Duration), n: make(map[string]int)}
}

type stageSpan struct {
	t     *stageTracer
	stage string
	start time.Time
}

func (t *stageTracer) Start(stage string) obs.Span {
	return &stageSpan{t: t, stage: stage, start: time.Now()}
}

func (s *stageSpan) End() {
	d := time.Since(s.start)
	s.t.mu.Lock()
	s.t.busy[s.stage] += d
	s.t.n[s.stage]++
	s.t.mu.Unlock()
}

func (t *stageTracer) seconds(stage string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.busy[stage].Seconds()
}

func (t *stageTracer) count(stage string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.n[stage])
}

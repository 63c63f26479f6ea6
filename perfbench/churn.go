package main

import (
	"encoding/hex"
	"fmt"
	"time"

	"github.com/magellan-p2p/magellan/internal/sim"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// timedSink is a trace.Sink wrapper that, while on, counts and times
// the wrapped Submit calls.
type timedSink struct {
	next   trace.Sink
	on     bool
	n      int
	submit time.Duration
}

func (t *timedSink) Submit(r trace.Report) error {
	if !t.on {
		return t.next.Submit(r)
	}
	start := time.Now()
	err := t.next.Submit(r)
	t.submit += time.Since(start)
	t.n++
	return err
}

// churnRep runs the sim from the trace start for one ramp hour (set-up)
// plus the scale's timed hours, into a trace.Store. The set-up/timed
// boundary is the first Progress callback.
func churnRep(e env) (repOut, error) {
	store := trace.NewStore(0)
	sink := &timedSink{next: store}
	hours := 1 + e.scale.churnHours
	type mark struct {
		at    time.Time
		stats sim.Stats
		rt    runtimeCounters
	}
	var marks []mark
	cfg := sim.Config{
		Seed:            e.seed,
		Duration:        time.Duration(hours) * time.Hour,
		MeanConcurrency: e.scale.churnPeers,
		Shards:          1,
		Sink:            sink,
		Progress: func(st sim.Stats) {
			now := time.Now()
			if len(marks) == 0 {
				sink.on = true
			}
			marks = append(marks, mark{at: now, stats: st, rt: readCounters()})
		},
	}
	t0 := time.Now()
	s, err := sim.New(cfg)
	if err != nil {
		return repOut{}, fmt.Errorf("sim.New: %w", err)
	}
	tNew := time.Now()
	err = s.Run()
	tRun := time.Now()
	if err != nil {
		return repOut{}, fmt.Errorf("sim.Run: %w", err)
	}
	if len(marks) != hours {
		return repOut{}, fmt.Errorf("got %d progress callbacks for %d hours", len(marks), hours)
	}
	ix := store.Seal()
	peak := liveHeapMiB()
	first, last := marks[0], marks[len(marks)-1]
	timed := last.at.Sub(first.at).Seconds()
	final := s.Stats()
	reports := float64(last.stats.Reports - first.stats.Reports)

	m := sample{
		"setup_s":         first.at.Sub(t0).Seconds(),
		"peer_vsec_per_s": (last.stats.PeerVirtualSeconds - first.stats.PeerVirtualSeconds) / timed,
		"reports_per_s":   reports / timed,
		"delivered_ratio": float64(store.Len()) / float64(final.Reports),
		"peak_heap_mib":   peak,
	}
	addRuntime(m, first.rt, last.rt)
	if e.traced {
		m["sim.new_s"] = tNew.Sub(t0).Seconds()
		m["sim.ramp_s"] = first.at.Sub(tNew).Seconds()
		m["sim.run_s"] = timed
		m["sim.joins"] = float64(last.stats.Joins - first.stats.Joins)
		m["sim.reports"] = reports
		m["sim.peer_vsec"] = last.stats.PeerVirtualSeconds - first.stats.PeerVirtualSeconds
		m["trace.store_submit_s"] = sink.submit.Seconds()
		m["trace.store_submit_n"] = float64(sink.n)
		// The sim layer spans sim.New to the last hour's callback; the
		// rest of the repetition's wall is the tail of Run.
		wall := tRun.Sub(t0).Seconds()
		m["bench.uncovered_share"] = (wall - last.at.Sub(t0).Seconds()) / wall
	}

	ck := e.check
	ck.expect(uint64(store.Len()) == final.Reports, "churn: sink holds %d reports, sim reported %d", store.Len(), final.Reports)
	ck.expect(uint64(sink.n) == last.stats.Reports-first.stats.Reports,
		"churn: %d hand-offs timed, sim reported %v in the timed hours", sink.n, reports)
	ck.expect(reports > 0, "churn: no reports in the timed hours")
	fp := ix.Fingerprint()
	failed := int64(final.Reports) - int64(store.Len())
	return repOut{
		m:            m,
		attempted:    int64(final.Reports),
		failed:       max(failed, 0),
		fingerprints: map[string]string{"index": hex.EncodeToString(fp[:])},
	}, nil
}

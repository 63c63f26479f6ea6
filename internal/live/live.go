// Package live is the streaming incremental analysis plane: it
// subscribes to the ingest tier (trace.Fleet / trace.Server /
// trace.Store observers, or the simulator's report path) and maintains
// per-epoch topology state online, finalizing each epoch's Fig. 4–9
// metrics the moment the watermark passes it — while the batch
// pipeline would still be waiting for the trace to seal.
//
// The correctness contract is reconciliation against the sealed-index
// batch path: for every epoch the analyzer closes, its canonical
// encoding (core.AppendCanonical) is byte-identical to what
// core.BatchEpochMetrics produces for that epoch from the merged
// sealed store. That holds because epochs close through
// core.EpochCloser, which keeps the latest report per peer in per-shard
// arrival order (sound because trace.ShardOf assigns each address
// wholly to one shard) and builds each closing epoch's columns with the
// sealed index's own rule, trace.EpochColumns; the analyzer then runs
// the very same per-epoch kernel, core.AnalyzeEpochMetrics, over them.
//
// Epoch close is watermark-driven with lag 0: epoch e closes once every
// shard has seen a report from an epoch strictly after e. Reports that
// arrive for an already-closed epoch are dropped with accounting
// (stragglers). This is stricter than core.AnalyzeStream, whose lag 1
// keeps an epoch open for one more epoch of late reports.
//
// The closed series keeps the newest closedCap epochs, so a
// long-running daemon holds (and serves on /live/epochs) a bounded
// window; older epochs are dropped and counted.
//
// The package is covered by the determinism analyzer: it never reads a
// wall clock or ambient randomness. Finalize latency — the one
// inherently wall-clock measurement — is read through the injected
// Config.NowNanos; when that is nil (the deterministic default), no
// clock is read at all.
package live

import (
	"crypto/sha256"
	"slices"
	"sync"
	"time"

	"github.com/magellan-p2p/magellan/internal/core"
	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/obs"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// closedCap bounds the closed-epoch series: four weeks of 10-minute
// epochs, twice the paper's two-week trace window, so a full replay of
// the trace never evicts.
const closedCap = 4032

// Config tunes a live Analyzer.
type Config struct {
	// Interval is the epoch width; 0 means trace.DefaultReportInterval.
	Interval time.Duration
	// Shards is the number of ingest shards that will feed Observe
	// (the fleet size); 0 or 1 means a single unsharded source. The
	// watermark waits for every shard, so it must match the real fan-in
	// or epochs either close early (too small) or never (too large).
	Shards int
	// DB resolves addresses to ISPs for the intra-/inter-ISP splits;
	// nil means an empty database (every address Unknown).
	DB *isp.Database
	// Analysis tunes the per-epoch kernel. It is sanitized with an
	// unknown epoch count, so an unset HeavyEveryN resolves to
	// core.StreamingHeavyEveryN, as in core.BatchEpochMetrics; every
	// other knob defaults exactly as core.Analyze defaults it. For
	// byte-equivalence with a batch run, both sides must resolve to the
	// same sanitized config — in particular an explicit HeavyEveryN and
	// snapshot instants that exist in the trace (the online analyzer
	// cannot apply the batch path's short-trace snapshot fallback).
	Analysis core.Config
	// Obs, when non-nil, receives the magellan_live_* metrics family.
	// Measurement-only, like every registry in the repo.
	Obs *obs.Registry
	// NowNanos, when non-nil, supplies wall-clock nanoseconds for the
	// finalize-latency histogram. The daemon layer injects the real
	// clock; the deterministic default (nil) skips latency measurement
	// entirely, keeping the package clean under the determinism
	// analyzer.
	NowNanos func() int64
}

// ClosedEpoch is one finalized epoch: its metrics, the canonical
// encoding those metrics reconcile through, and the encoding's SHA-256
// digest (what /live/epochs exposes for cheap operator-side diffing
// against `magellan-analyze -epoch-digests`).
type ClosedEpoch struct {
	Epoch int64
	Start time.Time
	// Reports is the number of stable peers retained after
	// latest-by-peer dedup — the rows of the epoch's report column.
	Reports   int
	Metrics   *core.EpochMetrics
	Canonical []byte
	Digest    [sha256.Size]byte
}

// Analyzer maintains per-epoch topology state online. One mutex guards
// all state: Observe calls (one per ingested report, from each shard's
// ingest goroutine) do O(1) work under it, and the epoch finalization
// triggered by a watermark advance runs synchronously under the same
// lock on the observing goroutine. That stall is the back-pressure
// policy: the ingest servers' bounded queues absorb it, shedding with
// accounting if finalization ever outlasts a queue — the same
// shed-don't-block stance the rest of the measurement plane takes.
//
// All methods are safe for concurrent use and are no-ops on a nil
// receiver, so wiring can install the observer hook before deciding
// whether a live plane exists.
type Analyzer struct {
	interval time.Duration
	cfg      core.Config // sanitized
	db       *isp.Database
	nowNanos func() int64

	mu         sync.Mutex
	closer     *core.EpochCloser
	closed     []*ClosedEpoch // the newest closedCap closed epochs, ascending
	closedN    uint64         // epochs ever closed; drives the heavy cadence
	scratch    *core.EpochScratch
	snapLabels map[int64]string

	finalizeHist *obs.Histogram
}

// New builds an Analyzer. Metrics are registered immediately when
// cfg.Obs is set; the analyzer holds no goroutines and needs no Close.
func New(cfg Config) *Analyzer {
	interval := cfg.Interval
	if interval <= 0 {
		interval = trace.DefaultReportInterval
	}
	db := cfg.DB
	if db == nil {
		db, _ = isp.NewDatabase(nil) // empty range set cannot fail
	}
	ac := cfg.Analysis.Sanitized(0)

	a := &Analyzer{
		interval:   interval,
		cfg:        ac,
		db:         db,
		nowNanos:   cfg.NowNanos,
		scratch:    core.NewEpochScratch(),
		snapLabels: core.SnapshotLabels(interval, ac.Snapshots),
	}
	a.closer = core.NewEpochCloser(interval, cfg.Shards, 0, a.finalizeLocked)
	if cfg.Obs != nil {
		a.register(cfg.Obs)
	}
	return a
}

// register exposes the magellan_live_* family. Scrape callbacks take
// the analyzer mutex briefly; they never block ingest for longer than
// one O(1) read.
func (a *Analyzer) register(reg *obs.Registry) {
	reg.CounterFunc("magellan_live_epochs_closed_total",
		"Epochs the live analyzer has finalized.",
		func() uint64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return a.closedN
		})
	reg.CounterFunc("magellan_live_epochs_evicted_total",
		"Closed epochs dropped from the retained series to bound it.",
		func() uint64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return a.closedN - uint64(len(a.closed))
		})
	reg.CounterFunc("magellan_live_stragglers_dropped_total",
		"Reports dropped for arriving after their epoch closed.",
		func() uint64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return a.closer.Stragglers()
		})
	inFlight := func(f func(core.OpenEpoch) int) func() float64 {
		return func() float64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			n := 0
			for _, o := range a.closer.Open() {
				n += f(o)
			}
			return float64(n)
		}
	}
	reg.GaugeFunc("magellan_live_watermark_lag_epochs",
		"Open epochs between the watermark and the newest report seen.",
		inFlight(func(core.OpenEpoch) int { return 1 }))
	reg.GaugeFunc("magellan_live_peers_in_flight",
		"Deduplicated reporting peers accumulated in open epochs.",
		inFlight(func(o core.OpenEpoch) int { return o.Peers }))
	reg.GaugeFunc("magellan_live_edges_in_flight",
		"Partner-list entries accumulated in open epochs.",
		inFlight(func(o core.OpenEpoch) int { return o.Edges }))
	a.finalizeHist = reg.Histogram("magellan_live_finalize_duration_seconds",
		"Wall time to finalize one closed epoch (observed only when a clock is injected).",
		obs.DefLatencyBuckets())
}

// Observe feeds one accepted report from the given 0-based shard.
// Wire it as trace.FleetConfig.Observe (the shard index arrives
// already correct), as a Store observer or simulator tee with the
// producing shard's index, or with shard 0 for unsharded sources.
// Nil-receiver safe, so callers can install hooks unconditionally.
func (a *Analyzer) Observe(shard int, r trace.Report) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closer.Observe(shard, r)
}

// finalizeLocked is the closer's callback: it runs the shared per-epoch
// kernel over one closed epoch and appends the result (with its
// canonical encoding and digest) to the bounded closed series.
func (a *Analyzer) finalizeLocked(v core.EpochView) {
	var t0 int64
	if a.nowNanos != nil {
		t0 = a.nowNanos()
	}
	heavy := a.closedN%uint64(a.cfg.HeavyEveryN) == 0
	m := core.AnalyzeEpochMetrics(v, a.db, a.cfg, heavy, a.snapLabels[v.Epoch], a.scratch)
	canon := core.AppendCanonical(nil, m)
	ce := &ClosedEpoch{
		Epoch:     v.Epoch,
		Start:     v.Start,
		Reports:   v.StableCount(),
		Metrics:   m,
		Canonical: canon,
		Digest:    sha256.Sum256(canon),
	}
	if len(a.closed) == closedCap {
		a.closed = slices.Delete(a.closed, 0, 1) // drop the oldest
	}
	a.closed = append(a.closed, ce)
	a.closedN++
	if a.finalizeHist != nil && a.nowNanos != nil {
		a.finalizeHist.Observe(float64(a.nowNanos()-t0) / 1e9)
	}
}

// Drain finalizes every open epoch regardless of the watermark, in
// ascending order — end-of-run flush (simulation finished, daemon
// shutting down). The analyzer stays usable: reports for epochs at or
// below the drained frontier count as stragglers, newer epochs open
// fresh state. Nil-receiver safe.
func (a *Analyzer) Drain() {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closer.Drain()
}

// Closed returns the retained finalized epochs — the newest closedCap —
// in ascending epoch order. The slice is a copy; the entries are shared
// and must be treated as read-only.
func (a *Analyzer) Closed() []*ClosedEpoch {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return slices.Clone(a.closed)
}

// Stragglers returns how many reports were dropped for arriving after
// their epoch had closed (or with an out-of-range shard index).
func (a *Analyzer) Stragglers() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.closer.Stragglers()
}

// InFlightEpoch summarizes one open epoch's provisional state.
type InFlightEpoch = core.OpenEpoch

// InFlight returns the open epochs in ascending order.
func (a *Analyzer) InFlight() []InFlightEpoch {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.closer.Open()
}

// Interval returns the epoch width the analyzer buckets by.
func (a *Analyzer) Interval() time.Duration {
	if a == nil {
		return 0
	}
	return a.interval
}

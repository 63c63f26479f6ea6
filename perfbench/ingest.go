package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/magellan-p2p/magellan/internal/core"
	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/live"
	"github.com/magellan-p2p/magellan/internal/obs"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// maxLateShare bounds the open loop's validity: a run whose median
// send lateness reaches this share of the median ingest latency
// measures the generator, not the fleet, and fails its check.
const maxLateShare = 0.25

// spinBefore is how long before each send's deadline the open loop
// stops sleeping and spins.
const spinBefore = 5 * time.Microsecond

// oracle is the batch side of the live↔batch equivalence for one
// merged store: the per-epoch canonical digests core.BatchEpochMetrics
// produces. Repetitions with the same merged fingerprint share it.
type oracle struct {
	epochs  []int64
	digests [][sha256.Size]byte
}

// ingestRep replays the scale's days of the base trace, in time order,
// at a fixed rate from one goroutine through one trace.ShardedClient
// into a trace.Fleet on loopback whose Observe hook feeds a
// live.Analyzer. Each report's latency runs from its scheduled send
// time to its acceptance in the hook.
func ingestRep(e env) (repOut, error) {
	var simLayer sample
	if e.traced {
		simLayer = sample{}
	}
	t0 := time.Now()
	base, db, err := baseDay(e.seed, e.scale.basePeers, simLayer)
	if err != nil {
		return repOut{}, err
	}
	set := replayDays(base, e.scale.ingestDays)
	const shards = 2

	// The j-th report a shard accepts is the j-th one sent to it, unless
	// some were lost in between; seq lets the hook resynchronize
	// forward past losses.
	seq := make([][]int32, shards)
	for i := range set {
		k := trace.ShardOf(set[i].Addr, shards)
		seq[k] = append(seq[k], int32(i))
	}
	accept := make([]int64, len(set)) // ns after clock; 0 = never accepted
	cursor := make([]int, shards)
	unmatched := make([]int, shards)
	observeDur := make([]time.Duration, shards)
	observeN := make([]int, shards)

	var reg *obs.Registry
	var nowNanos func() int64
	if e.traced {
		reg = obs.NewRegistry()
		nowNanos = func() int64 { return time.Now().UnixNano() }
	}
	an := live.New(live.Config{Shards: shards, DB: db, Obs: reg, NowNanos: nowNanos})

	clock := time.Now() // every timestamp below is monotonic time since clock
	observe := func(shard int, r trace.Report) {
		at := int64(time.Since(clock))
		q, c := seq[shard], cursor[shard]
		for c < len(q) && !sameReport(&set[q[c]], &r) {
			c++
		}
		if c < len(q) {
			accept[q[c]] = at
			cursor[shard] = c + 1
		} else {
			unmatched[shard]++
		}
		start := time.Now()
		an.Observe(shard, r)
		observeDur[shard] += time.Since(start)
		observeN[shard]++
	}

	stores := make([]*trace.Store, shards)
	sinks := make([]*timedSink, shards)
	fleet, err := trace.NewFleet(trace.FleetAddrs("127.0.0.1", shards), func(k int) (trace.Sink, error) {
		stores[k] = trace.NewStore(0)
		if !e.traced {
			return stores[k], nil
		}
		sinks[k] = &timedSink{next: stores[k], on: true}
		return sinks[k], nil
	}, trace.FleetConfig{Observe: observe})
	if err != nil {
		return repOut{}, err
	}
	defer fleet.Close()
	client, err := trace.DialSharded(fleet.Addrs()...)
	if err != nil {
		return repOut{}, err
	}
	defer client.Close()
	setup := time.Since(t0).Seconds()

	// Timed part: the open loop, then wait for the backlog to settle.
	// The loop stands in for a load generator on a core of its own: it
	// keeps one P for the whole loop, sleeping without handing it back
	// (see pause), so the fleet runs on the other GOMAXPROCS-1 Ps and
	// the sender never waits for a P or a CPU.
	if procs := runtime.GOMAXPROCS(0); procs < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(procs)
	}
	rt0 := readCounters()
	gap := float64(time.Second) / e.scale.ingestRate
	first := int64(time.Since(clock)) + int64(time.Millisecond)
	due := func(i int) int64 { return first + int64(float64(i)*gap) }
	late := make([]float64, len(set))
	var sendErrs int
	restore := precisePacing()
	cpu0, senderCPU0 := processCPU(), threadCPU()
	for i := range set {
		d := due(i)
		now := int64(time.Since(clock))
		// Sleep to just short of the deadline, then spin the rest: the
		// kernel's wake-up lag would otherwise be most of the lateness.
		if wake := d - int64(spinBefore); now < wake {
			pause(time.Duration(wake - now))
		}
		for now < d {
			now = int64(time.Since(clock))
		}
		late[i] = float64(now-d) / 1e6
		if err := client.Submit(set[i]); err != nil {
			sendErrs++
		}
	}
	lastSend := time.Since(clock)
	senderCPU := threadCPU() - senderCPU0
	restore()
	settled := settle(fleet, uint64(len(set)))
	fleetCPU := processCPU() - cpu0 - senderCPU
	drainBacklog := (settled.Sub(clock) - lastSend).Seconds()
	if err := fleet.Close(); err != nil {
		return repOut{}, fmt.Errorf("fleet close: %w", err)
	}
	tDrain := time.Now()
	an.Drain()
	drain := time.Since(tDrain).Seconds()
	rt1 := readCounters()
	peak := liveHeapMiB()

	stats := fleet.Stats()
	total := fleet.TotalStats()
	var lat []float64
	for i, at := range accept {
		if at > 0 {
			lat = append(lat, float64(at-due(i))/1e6)
		}
	}
	sent := len(set)
	accepted := float64(total.Received)
	var obsDur time.Duration
	for _, d := range observeDur {
		obsDur += d
	}
	m := sample{
		"setup_s": setup,
		// The offered rate is fixed, so accepted reports per wall second
		// could not move. Throughput is instead taken per unit of the
		// work the fleet spent: reports per CPU second of the process
		// outside the sender thread, and peer time per second spent
		// inside the analyzer's Observe (its lock waits included).
		"peer_vsec_per_s": accepted * trace.DefaultReportInterval.Seconds() / obsDur.Seconds(),
		"reports_per_s":   accepted / fleetCPU,
		"delivered_ratio": accepted / float64(sent),
		"peak_heap_mib":   peak,
	}
	addRuntime(m, rt0, rt1)
	for k, v := range simLayer {
		m[k] = v
	}
	closed := an.Closed()
	if e.traced {
		var submit time.Duration
		var submitN, obsN int
		lo, hi := math.Inf(1), 0.0
		for k := range stats {
			submit += sinks[k].submit
			submitN += sinks[k].n
			obsN += observeN[k]
			lo = min(lo, float64(stats[k].Received))
			hi = max(hi, float64(stats[k].Received))
		}
		m["trace.store_submit_s"] = submit.Seconds()
		m["trace.store_submit_n"] = float64(submitN)
		m["trace.server_received"] = accepted
		m["trace.server_queue_drops"] = float64(total.QueueDrops)
		m["trace.server_rejected"] = float64(total.Rejected)
		m["trace.shard_skew"] = hi / max(lo, 1)
		m["trace.backlog_drain_s"] = drainBacklog
		m["trace.ingest_p50_ms"] = quantile(lat, 0.50)
		m["trace.ingest_p99_ms"] = quantile(lat, 0.99)
		m["live.observe_s"] = obsDur.Seconds()
		m["live.observe_n"] = float64(obsN)
		m["live.finalize_s"], m["live.finalize_n"] = histogram(reg, "magellan_live_finalize_duration_seconds")
		m["live.epochs_closed"] = float64(len(closed))
		m["live.stragglers"] = float64(an.Stragglers())
		m["live.drain_s"] = drain
		m["loadgen.sent"] = float64(sent - sendErrs)
		m["loadgen.late_p99_ms"] = quantile(late, 0.99)
		m["loadgen.late_max_ms"] = quantile(late, 1)
	}

	missing := int64(sent) - int64(total.Received+total.QueueDrops+total.Rejected+total.SinkErrors)
	fmt.Fprintf(e.log, "#   ingest: sent %d accepted %d queue_drops %d rejected %d sink_errors %d missing %d send_errors %d; drain %.4f s\n",
		sent, total.Received, total.QueueDrops, total.Rejected, total.SinkErrors, missing, sendErrs, drainBacklog)
	fmt.Fprintf(e.log, "#   latency ms p50 %.4f p90 %.4f p99 %.4f p99.9 %.4f max %.4f; send lateness ms p50 %.4f p99 %.4f max %.4f\n",
		quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99), quantile(lat, 0.999), quantile(lat, 1),
		quantile(late, 0.5), quantile(late, 0.99), quantile(late, 1))

	ck := e.check
	lateShare := quantile(late, 0.5) / quantile(lat, 0.5)
	ck.expect(lateShare < maxLateShare, "ingest: open loop invalid, median send lateness is %.3f of the median ingest latency", lateShare)
	for k, n := range unmatched {
		ck.expect(n == 0, "ingest: %d reports accepted by shard %d matched no sent report", n, k)
	}
	ck.expect(len(lat) == int(total.Received), "ingest: %d acceptances timed, fleet accepted %d", len(lat), total.Received)

	merged, err := trace.MergeStores(stores...)
	if err != nil {
		return repOut{}, err
	}
	mfp := merged.Seal().Fingerprint()
	mergedHex := hex.EncodeToString(mfp[:])
	sentHex, err := e.memo.sentFingerprint(set)
	if err != nil {
		return repOut{}, err
	}
	if total.Received == uint64(sent) {
		ck.expect(mergedHex == sentHex, "ingest: nothing dropped but the merged fingerprint %s differs from the sent trace's %s", mergedHex, sentHex)
	}
	or, err := e.memo.batch(mergedHex, merged, db)
	if err != nil {
		return repOut{}, err
	}
	ck.expect(len(closed) == len(or.digests), "ingest: live closed %d epochs, batch has %d", len(closed), len(or.digests))
	h := sha256.New()
	for i := 0; i < len(closed) && i < len(or.digests); i++ {
		ce := closed[i]
		if ce.Epoch != or.epochs[i] || ce.Digest != or.digests[i] {
			ck.expect(false, "ingest: live epoch %d (position %d) differs from batch epoch %d", ce.Epoch, i, or.epochs[i])
			break
		}
		h.Write(ce.Digest[:])
	}
	fps := map[string]string{"sent": sentHex}
	if total.Received == uint64(sent) {
		// A repetition that lost reports legitimately closes different
		// epochs; only lossless ones must all agree (and match the pin).
		fps["live_epochs"] = hex.EncodeToString(h.Sum(nil))
	}
	return repOut{
		m:            m,
		latencies:    lat,
		attempted:    int64(sent),
		failed:       int64(sent) - int64(total.Received),
		fingerprints: fps,
	}, nil
}

func sameReport(a, b *trace.Report) bool {
	return a.Addr == b.Addr && a.Time.Equal(b.Time)
}

// settle waits until the fleet has accounted for every sent report, or
// until its counts stop moving for 200 ms (datagrams lost in the kernel
// never arrive), and returns when the counts last moved.
func settle(f *trace.Fleet, sent uint64) time.Time {
	var last uint64
	lastMove := time.Now()
	for {
		st := f.TotalStats()
		n := st.Received + st.QueueDrops + st.Rejected + st.SinkErrors
		if n != last {
			last, lastMove = n, time.Now()
		}
		if n >= sent || time.Since(lastMove) > 200*time.Millisecond {
			return lastMove
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// histogram returns the _sum and _count of a registry histogram.
func histogram(reg *obs.Registry, name string) (sum, count float64) {
	for _, s := range reg.Snapshot(nil) {
		switch s.Series {
		case name + "_sum":
			sum = s.Value
		case name + "_count":
			count = s.Value
		}
	}
	return sum, count
}

// memo holds what a run's repetitions can share because it depends only
// on their (identical) inputs: the sent trace's fingerprint and the
// batch oracle per merged store.
type memo struct {
	sent   string
	oracle map[string]*oracle
}

func newMemo() *memo { return &memo{oracle: map[string]*oracle{}} }

func (mo *memo) sentFingerprint(set []trace.Report) (string, error) {
	if mo.sent != "" {
		return mo.sent, nil
	}
	st := trace.NewStore(0)
	for i := range set {
		if err := st.Submit(set[i]); err != nil {
			return "", err
		}
	}
	fp := st.Seal().Fingerprint()
	mo.sent = hex.EncodeToString(fp[:])
	return mo.sent, nil
}

func (mo *memo) batch(key string, merged *trace.Store, db *isp.Database) (*oracle, error) {
	if or, ok := mo.oracle[key]; ok {
		return or, nil
	}
	ms, err := core.BatchEpochMetrics(merged, db, core.Config{})
	if err != nil {
		return nil, fmt.Errorf("BatchEpochMetrics: %w", err)
	}
	or := &oracle{}
	var buf []byte
	for _, m := range ms {
		buf = core.AppendCanonical(buf[:0], m)
		or.epochs = append(or.epochs, m.Epoch)
		or.digests = append(or.digests, sha256.Sum256(buf))
	}
	mo.oracle[key] = or
	return or, nil
}

package core

import (
	"cmp"
	"slices"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// noEpoch marks "no epoch seen yet" in watermark state; every real
// epoch index is far above it.
const noEpoch = -1 << 62

// EpochCloser is the one online epoch closer: it buckets reports into
// epochs as they arrive, keeps the latest report per peer in each open
// epoch (last write wins, in arrival order — the sealed index's dedup,
// applied incrementally), and closes epochs by watermark.
//
// The watermark is the minimum over shards of each shard's newest
// epoch. Epoch e closes once the watermark passes e + lag: lag 0 closes
// e as soon as every shard has seen a later epoch (the live analyzer's
// rule), lag 1 keeps e open for one more (AnalyzeStream's tolerance
// for reports one epoch behind the newest). Closed epochs form an
// ascending prefix; a report for an epoch at or behind the closed
// frontier, or naming a shard outside the fan-in, is dropped and
// counted as a straggler.
//
// Each closing epoch's columns are built by trace.EpochColumns, so the
// EpochView handed to the callback is exactly what the sealed index
// would hold for the same reports. The view aliases state the closer
// discards when the callback returns; the callback must not retain it.
// An EpochCloser is not safe for concurrent use.
type EpochCloser struct {
	interval      time.Duration
	lag           int64
	onClose       func(EpochView)
	shardMax      []int64      // per-shard newest epoch seen
	open          []*openEpoch // open epochs, ascending
	closedThrough int64        // epochs ≤ this are closed
	stragglers    uint64
}

// openEpoch is one open epoch's accumulating state: the last report per
// address, in first-arrival order (slot holds each address's position),
// and the partner-list entries behind them.
type openEpoch struct {
	epoch  int64
	slot   map[isp.Addr]int32
	latest []trace.Report
	edges  int
}

// OpenEpoch summarizes one open epoch's provisional state.
type OpenEpoch struct {
	Epoch int64
	Start time.Time
	// Peers is the deduplicated reporter count so far; Edges the total
	// partner-list entries backing it.
	Peers int
	Edges int
}

// NewEpochCloser builds a closer over epochs of the given (positive)
// width fed by shards sources (values below 1 mean one). onClose
// receives every closed epoch, in ascending order.
func NewEpochCloser(interval time.Duration, shards int, lag int64, onClose func(EpochView)) *EpochCloser {
	c := &EpochCloser{
		interval:      interval,
		lag:           lag,
		onClose:       onClose,
		shardMax:      make([]int64, max(shards, 1)),
		closedThrough: noEpoch,
	}
	for i := range c.shardMax {
		c.shardMax[i] = noEpoch
	}
	return c
}

// Observe feeds one report from the given 0-based shard, closing every
// epoch the advanced watermark passes.
func (c *EpochCloser) Observe(shard int, r trace.Report) {
	epoch := r.Time.UnixNano() / int64(c.interval)
	if shard < 0 || shard >= len(c.shardMax) || epoch <= c.closedThrough {
		// Behind the frontier, or from a shard that would deadlock the
		// watermark if honored and corrupt it if clamped.
		c.stragglers++
		return
	}
	i, ok := slices.BinarySearchFunc(c.open, epoch, func(o *openEpoch, e int64) int { return cmp.Compare(o.epoch, e) })
	if !ok {
		c.open = slices.Insert(c.open, i, &openEpoch{epoch: epoch, slot: make(map[isp.Addr]int32)})
	}
	o := c.open[i]
	if k, ok := o.slot[r.Addr]; ok {
		o.edges += len(r.Partners) - len(o.latest[k].Partners)
		o.latest[k] = r
	} else {
		o.slot[r.Addr] = int32(len(o.latest))
		o.latest = append(o.latest, r)
		o.edges += len(r.Partners)
	}
	if epoch > c.shardMax[shard] {
		c.shardMax[shard] = epoch
		if w := slices.Min(c.shardMax); w != noEpoch {
			c.closeThrough(w - 1 - c.lag)
		}
	}
}

// Drain closes every open epoch regardless of the watermark, in
// ascending order — the end-of-input flush. The closer stays usable:
// later reports at or behind the drained frontier are stragglers.
func (c *EpochCloser) Drain() {
	if n := len(c.open); n > 0 {
		c.closeThrough(c.open[n-1].epoch)
	}
}

// closeThrough closes every open epoch ≤ frontier, in ascending order,
// and advances the closed frontier.
func (c *EpochCloser) closeThrough(frontier int64) {
	if frontier <= c.closedThrough {
		return
	}
	c.closedThrough = frontier
	n := 0
	for ; n < len(c.open) && c.open[n].epoch <= frontier; n++ {
		o := c.open[n]
		addrs, all := trace.EpochColumns(o.latest,
			make([]isp.Addr, 0, len(o.latest)), make([]isp.Addr, 0, len(o.latest)+o.edges))
		c.onClose(EpochView{
			Epoch:   o.epoch,
			Start:   epochStartOf(c.interval, o.epoch),
			reports: o.latest,
			addrs:   addrs,
			all:     all,
		})
	}
	c.open = slices.Delete(c.open, 0, n)
}

// Stragglers returns how many reports were dropped for arriving at or
// behind the closed frontier (or with an out-of-range shard index).
func (c *EpochCloser) Stragglers() uint64 { return c.stragglers }

// Open returns the open epochs in ascending order.
func (c *EpochCloser) Open() []OpenEpoch {
	out := make([]OpenEpoch, len(c.open))
	for i, o := range c.open {
		out[i] = OpenEpoch{Epoch: o.epoch, Start: epochStartOf(c.interval, o.epoch), Peers: len(o.latest), Edges: o.edges}
	}
	return out
}

//magellan:hotpath
package trace

import (
	"cmp"
	"slices"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/obs"
)

// Index is an immutable, columnar view of a Store's epochs, built once
// by Store.Seal. For every epoch it precomputes the deduplicated
// latest-by-peer report list sorted by address, the matching address
// column, and the sorted set of all visible peers (reporters plus their
// partners). Analyzers consume these as shared sub-slices, so assembling
// a per-epoch view costs no allocation and no re-sorting — the
// zero-rebuild contract behind core.Analyze's hot path.
//
// All slices returned by Index methods alias the index's backing arrays
// and must be treated as read-only.
type Index struct {
	interval time.Duration
	epochs   []int64       // ascending
	pos      map[int64]int // epoch → position in epochs

	reports []Report   // latest-by-peer, grouped by epoch, sorted by Addr
	addrs   []isp.Addr // addrs[i] == reports[i].Addr
	offsets []int      // epoch i's reports are reports[offsets[i]:offsets[i+1]]

	all    []isp.Addr // distinct visible peers per epoch, sorted
	allOff []int      // epoch i's peers are all[allOff[i]:allOff[i+1]]
}

// Seal builds (or returns the cached) Index over the store's current
// contents. The index is a consistent snapshot: reports submitted after
// Seal returns are not reflected in it, but the next Seal call detects
// the change and builds a fresh index. Sealing an unchanged store is
// O(1), which lets every analyzer call Seal independently and share one
// index.
func (s *Store) Seal() *Index {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idx != nil && s.idxCount == s.count {
		return s.idx
	}
	s.idx = buildIndex(s.interval, s.epochs, s.journal)
	s.idxCount = s.count
	return s.idx
}

// buildIndex does the one-time columnar precompute. Dedup keeps the
// last-submitted report per peer, matching Store.LatestByPeer. When a
// journal is attached it records the seal plane's verdicts: superseded
// for every report the latest-by-peer dedup replaced (in arrival order)
// and indexed for every report that made the index (in address order) —
// both deterministic, since epochs are walked sorted and each epoch's
// reports sit in arrival order.
func buildIndex(interval time.Duration, epochs map[int64][]Report, j *obs.Journal) *Index {
	keys := make([]int64, 0, len(epochs))
	total, maxLatest, maxVisible := 0, 0, 0
	for e, reports := range epochs {
		keys = append(keys, e)
		total += len(reports)
		// Size the per-epoch scratch buffers to the worst epoch up
		// front: maxLatest bounds the dedup buffer (before dedup),
		// maxVisible bounds reporters plus everyone on their partner
		// lists, so the loop below never grows either slice.
		visible := len(reports)
		for k := range reports {
			visible += len(reports[k].Partners)
		}
		maxLatest = max(maxLatest, len(reports))
		maxVisible = max(maxVisible, visible)
	}
	slices.Sort(keys)

	ix := &Index{
		interval: interval,
		epochs:   keys,
		pos:      make(map[int64]int, len(keys)),
		reports:  make([]Report, 0, total),
		addrs:    make([]isp.Addr, 0, total),
		offsets:  make([]int, len(keys)+1),
		allOff:   make([]int, len(keys)+1),
	}

	slot := make(map[isp.Addr]int32)
	latest := make([]Report, 0, maxLatest)
	all := make([]isp.Addr, 0, maxVisible)
	for i, e := range keys {
		ix.pos[e] = i

		// Latest-by-peer dedup in arrival order, then the column rule.
		clear(slot)
		latest = latest[:0]
		for k := range epochs[e] {
			r := epochs[e][k]
			if n, ok := slot[r.Addr]; ok {
				j.Record(latest[n].Time.UnixNano(), obs.StageSeal, obs.VerdictSuperseded,
					journalID(&latest[n], interval))
				latest[n] = r
			} else {
				slot[r.Addr] = int32(len(latest))
				latest = append(latest, r)
			}
		}
		ix.addrs, all = EpochColumns(latest, ix.addrs, all)
		ix.reports = append(ix.reports, latest...)
		for k := range latest {
			j.Record(latest[k].Time.UnixNano(), obs.StageSeal, obs.VerdictIndexed,
				journalID(&latest[k], interval))
		}
		ix.offsets[i+1] = len(ix.reports)
		ix.all = append(ix.all, all...)
		ix.allOff[i+1] = len(ix.all)
	}
	return ix
}

// EpochColumns is the column rule every epoch snapshot obeys, sealed
// (buildIndex) or online (core.EpochCloser). latest holds one report
// per peer, already deduplicated; EpochColumns sorts it by address in
// place, appends the aligned address column to addrs, and rebuilds
// visible from visible[:0] as every visible peer — reporters plus
// everyone on their partner lists — sorted and deduplicated. It
// returns the extended addrs and the rebuilt visible, so callers can
// pass pre-sized buffers and reuse them across epochs.
func EpochColumns(latest []Report, addrs, visible []isp.Addr) ([]isp.Addr, []isp.Addr) {
	slices.SortFunc(latest, byAddr)
	visible = visible[:0]
	for k := range latest {
		addrs = append(addrs, latest[k].Addr)
		visible = append(visible, latest[k].Addr)
		for _, p := range latest[k].Partners {
			visible = append(visible, p.Addr)
		}
	}
	slices.Sort(visible)
	return addrs, slices.Compact(visible)
}

func byAddr(a, b Report) int { return cmp.Compare(a.Addr, b.Addr) }

// Interval returns the epoch width.
func (ix *Index) Interval() time.Duration { return ix.interval }

// NumEpochs returns the number of non-empty epochs.
func (ix *Index) NumEpochs() int { return len(ix.epochs) }

// Epochs returns the indexes of all non-empty epochs, ascending. The
// slice is a copy; callers may keep it.
func (ix *Index) Epochs() []int64 {
	return slices.Clone(ix.epochs)
}

// EpochStart returns the instant an epoch begins, in UTC.
func (ix *Index) EpochStart(epoch int64) time.Time {
	return time.Unix(0, epoch*int64(ix.interval)).UTC()
}

// Reports returns the epoch's latest-by-peer reports sorted by address
// (a shared sub-slice; read-only). Empty for unknown epochs.
func (ix *Index) Reports(epoch int64) []Report {
	i, ok := ix.pos[epoch]
	if !ok {
		return nil
	}
	return ix.reports[ix.offsets[i]:ix.offsets[i+1]]
}

// Reporters returns the epoch's reporting addresses in ascending order,
// aligned with Reports (a shared sub-slice; read-only).
func (ix *Index) Reporters(epoch int64) []isp.Addr {
	i, ok := ix.pos[epoch]
	if !ok {
		return nil
	}
	return ix.addrs[ix.offsets[i]:ix.offsets[i+1]]
}

// AllPeers returns every address visible in the epoch — reporters plus
// everyone on their partner lists — sorted ascending (a shared
// sub-slice; read-only).
func (ix *Index) AllPeers(epoch int64) []isp.Addr {
	i, ok := ix.pos[epoch]
	if !ok {
		return nil
	}
	return ix.all[ix.allOff[i]:ix.allOff[i+1]]
}

package core

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// ReportSource yields reports one at a time; *trace.Reader and
// *trace.JSONLReader both satisfy it.
type ReportSource interface {
	Next() (trace.Report, error)
}

var (
	_ ReportSource = (*trace.Reader)(nil)
	_ ReportSource = (*trace.JSONLReader)(nil)
)

// StreamingHeavyEveryN is the small-world cadence Config.sanitize picks
// when HeavyEveryN is unset and the epoch count is unknown (n == 0): the
// batch default scales with the total epoch count, which no single-pass
// or live analyzer can know up front.
const StreamingHeavyEveryN = 6

// AnalyzeStream runs the full pipeline over a report stream in a single
// pass, holding only the open epochs' latest reports in memory — the
// mode a 120 GB production trace (the paper's) demands. Reports must be
// roughly time-ordered: an EpochCloser with lag 1 keeps a report one
// epoch behind the newest epoch seen, while anything two or more epochs
// behind is dropped and counted in the returned drop count. An invalid
// report is an error.
//
// Differences from Analyze: epochs are processed sequentially as they
// close (no worker pool), HeavyEveryN defaults to StreamingHeavyEveryN
// because the total epoch count is unknown up front, and the Fig. 4
// fallback snapshots are unavailable for the same reason.
func AnalyzeStream(src ReportSource, db *isp.Database, cfg Config, interval time.Duration) (*Results, int, error) {
	if interval <= 0 {
		interval = trace.DefaultReportInterval
	}
	cfg = cfg.sanitize(0)
	snapLabels := SnapshotLabels(interval, cfg.Snapshots)

	var (
		outs    []*EpochMetrics
		days    = make(map[int64]*daySets)
		scratch = NewEpochScratch()
	)
	closer := NewEpochCloser(interval, 1, 1, func(v EpochView) {
		heavy := len(outs)%cfg.HeavyEveryN == 0
		outs = append(outs, AnalyzeEpochMetrics(v, db, cfg, heavy, snapLabels[v.Epoch], scratch))
		foldDay(days, v)
	})
	for {
		rep, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err == nil {
			err = rep.Validate()
		}
		if err != nil {
			return nil, int(closer.Stragglers()), fmt.Errorf("core: stream: %w", err)
		}
		closer.Observe(0, rep)
	}
	closer.Drain()
	dropped := int(closer.Stragglers())
	if len(outs) == 0 {
		return nil, dropped, fmt.Errorf("core: stream held no reports")
	}
	res, err := assemble(interval, cfg, cfg.Snapshots, outs, days)
	return res, dropped, err
}

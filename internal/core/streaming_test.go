package core

import (
	"bytes"
	"io"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/trace"
	"github.com/magellan-p2p/magellan/internal/workload"
)

// storeSource replays a store's reports in epoch order, like reading a
// trace file written by a simulation.
type storeSource struct {
	reports []trace.Report
	i       int
}

func newStoreSource(t *testing.T, s *trace.Store) *storeSource {
	t.Helper()
	src := &storeSource{}
	err := s.Range(func(_ int64, _ time.Time, reports []trace.Report) error {
		src.reports = append(src.reports, reports...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func (s *storeSource) Next() (trace.Report, error) {
	if s.i >= len(s.reports) {
		return trace.Report{}, io.EOF
	}
	r := s.reports[s.i]
	s.i++
	return r, nil
}

func TestStreamMatchesBatch(t *testing.T) {
	store, db := scaledTrace(t)
	cfg := Config{
		Seed:        3,
		HeavyEveryN: 6,
		Snapshots: []SnapshotSpec{
			{Label: "mid", Time: workload.TraceStart().Add(3 * time.Hour)},
		},
	}

	batch, err := Analyze(store, db, cfg)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	streamed, dropped, err := AnalyzeStream(newStoreSource(t, store), db, cfg, store.Interval())
	if err != nil {
		t.Fatalf("AnalyzeStream: %v", err)
	}
	if dropped != 0 {
		t.Errorf("dropped %d reports from an ordered stream", dropped)
	}

	// The streaming pipeline closes epochs into the same columns and
	// runs the same per-epoch kernel, so every output bit must agree.
	encBatch, encStream := encodeResults(batch), encodeResults(streamed)
	if len(encBatch) < 1000 {
		t.Fatalf("encoding suspiciously small (%d bytes); encoder broken?", len(encBatch))
	}
	if !bytes.Equal(encStream, encBatch) {
		firstDiff(t, "AnalyzeStream vs Analyze", encStream, encBatch)
	}
}

// TestStreamTolerance pins AnalyzeStream's lateness window: a report one
// epoch behind the newest epoch seen still lands in its own epoch, and
// a report two epochs behind is dropped.
func TestStreamTolerance(t *testing.T) {
	_, db := scaledTrace(t)
	at := func(addr uint32, epoch int) trace.Report {
		r := report(addr, [3]uint32{100, 50, 50})
		r.Time = _t0.Add(time.Duration(epoch)*10*time.Minute + time.Minute)
		return r
	}
	src := &storeSource{reports: []trace.Report{
		at(1, 0),
		at(2, 1),
		at(3, 0), // one epoch late: kept
		at(4, 2),
		at(5, 0), // two epochs late: dropped
	}}
	res, dropped, err := AnalyzeStream(src, db, Config{Seed: 1}, 10*time.Minute)
	if err != nil {
		t.Fatalf("AnalyzeStream: %v", err)
	}
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	if res.EpochCount != 3 {
		t.Fatalf("epochs = %d, want 3", res.EpochCount)
	}
	first := res.PeerCounts.Stable.Points()[0]
	if !first.T.Equal(_t0) || first.V != 2 {
		t.Errorf("epoch 0 = %v with %v stable peers, want %v with 2", first.T, first.V, _t0)
	}
}

func TestStreamDropsStragglers(t *testing.T) {
	_, db := scaledTrace(t)
	e0 := _t0
	reports := []trace.Report{
		report(1, [3]uint32{2, 50, 50}),
		report(2, [3]uint32{1, 50, 50}),
		report(3, [3]uint32{1, 50, 50}),
		report(9, [3]uint32{1, 50, 50}), // straggler, three epochs late
	}
	reports[0].Time = e0.Add(time.Minute)
	reports[1].Time = e0.Add(11 * time.Minute)
	reports[2].Time = e0.Add(31 * time.Minute)
	reports[3].Time = e0.Add(2 * time.Minute)

	src := &storeSource{reports: reports}
	res, dropped, err := AnalyzeStream(src, db, Config{Seed: 1}, 10*time.Minute)
	if err != nil {
		t.Fatalf("AnalyzeStream: %v", err)
	}
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	if res.EpochCount != 3 {
		t.Errorf("epochs = %d, want 3", res.EpochCount)
	}
}

func TestStreamEmpty(t *testing.T) {
	_, db := scaledTrace(t)
	if _, _, err := AnalyzeStream(&storeSource{}, db, Config{}, 0); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestStreamFromBinaryReader(t *testing.T) {
	store, db := scaledTrace(t)
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.DumpTo(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, dropped, err := AnalyzeStream(rd, db, Config{Seed: 3}, store.Interval())
	if err != nil {
		t.Fatalf("AnalyzeStream over file: %v", err)
	}
	if dropped != 0 || res.EpochCount == 0 {
		t.Errorf("file stream: dropped=%d epochs=%d", dropped, res.EpochCount)
	}
}

package live

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/magellan-p2p/magellan/internal/core"
	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/obs"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// TestClosedSeriesBounded closes more epochs than the closed series
// holds and checks the accounting is exact: the newest closedCap epochs
// are retained in ascending order, every close is counted, and every
// eviction is counted once.
func TestClosedSeriesBounded(t *testing.T) {
	reg := obs.NewRegistry()
	a := New(Config{Interval: time.Minute, Obs: reg})
	const extra = 5
	total := closedCap + extra
	// Epoch total stays open: nothing newer has been seen.
	for e := 0; e <= total; e++ {
		a.Observe(0, trace.Report{
			Time:    time.Unix(0, int64(e)*int64(time.Minute)),
			Addr:    isp.Addr(e + 1),
			Channel: "CCTV1",
		})
	}

	closed := a.Closed()
	if len(closed) != closedCap {
		t.Fatalf("retained %d epochs, want %d", len(closed), closedCap)
	}
	for i, ce := range closed {
		want := int64(extra + i)
		if ce.Epoch != want {
			t.Fatalf("retained[%d] is epoch %d, want %d", i, ce.Epoch, want)
		}
		// The heavy cadence counts every close, evicted or not.
		if heavy := want%core.StreamingHeavyEveryN == 0; ce.Metrics.Heavy != heavy {
			t.Fatalf("epoch %d heavy = %v, want %v", want, ce.Metrics.Heavy, heavy)
		}
	}
	if p := a.payload(); p.EpochsClosed != total || len(p.Closed) != closedCap {
		t.Fatalf("payload: epochsClosed=%d, %d closed entries; want %d, %d",
			p.EpochsClosed, len(p.Closed), total, closedCap)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"magellan_live_epochs_closed_total " + strconv.Itoa(total),
		"magellan_live_epochs_evicted_total " + strconv.Itoa(extra),
		"magellan_live_watermark_lag_epochs 1",
	} {
		if !strings.Contains(b.String(), line+"\n") {
			t.Errorf("exposition lacks %q", line)
		}
	}
}

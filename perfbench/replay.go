package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/magellan-p2p/magellan/internal/core"
	"github.com/magellan-p2p/magellan/internal/isp"
	"github.com/magellan-p2p/magellan/internal/sim"
	"github.com/magellan-p2p/magellan/internal/trace"
)

// collect is a trace.Sink that keeps reports in arrival order.
type collect []trace.Report

func (c *collect) Submit(r trace.Report) error {
	*c = append(*c, r)
	return nil
}

// baseDay simulates one virtual day from the trace start at the given
// mean population and returns its reports in emission order (which is
// time order) and the run's ISP database. When m is non-nil it also
// records the sim layer's times and work, split like churn-10k's: hour 1
// is the ramp, the rest of the day the run.
func baseDay(seed int64, peers float64, m sample) ([]trace.Report, *isp.Database, error) {
	var out collect
	var rampAt time.Time
	var rampStats sim.Stats
	t0 := time.Now()
	s, err := sim.New(sim.Config{
		Seed:            seed,
		Duration:        24 * time.Hour,
		MeanConcurrency: peers,
		Sink:            &out,
		Progress: func(st sim.Stats) {
			if rampAt.IsZero() {
				rampAt, rampStats = time.Now(), st
			}
		},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("sim.New: %w", err)
	}
	tNew := time.Now()
	if err := s.Run(); err != nil {
		return nil, nil, fmt.Errorf("sim.Run: %w", err)
	}
	if m != nil {
		end := time.Now()
		final := s.Stats()
		m["sim.new_s"] = tNew.Sub(t0).Seconds()
		m["sim.ramp_s"] = rampAt.Sub(tNew).Seconds()
		m["sim.run_s"] = end.Sub(rampAt).Seconds()
		m["sim.joins"] = float64(final.Joins - rampStats.Joins)
		m["sim.reports"] = float64(final.Reports - rampStats.Reports)
		m["sim.peer_vsec"] = final.PeerVirtualSeconds - rampStats.PeerVirtualSeconds
	}
	return out, s.Database(), nil
}

// replayDays repeats a one-day trace days times, copy k shifted by k
// whole days, so the result stays in time order.
func replayDays(base []trace.Report, days int) []trace.Report {
	out := make([]trace.Report, 0, len(base)*days)
	for k := 0; k < days; k++ {
		shift := time.Duration(k) * 24 * time.Hour
		for _, r := range base {
			r.Time = r.Time.Add(shift)
			out = append(out, r)
		}
	}
	return out
}

// replayRep is the magellan-analyze batch path: the set-up simulates
// the base day and encodes the replayed window; the timed part decodes
// it with trace.LoadStore, seals it, and runs core.Analyze.
func replayRep(e env) (repOut, error) {
	var simLayer sample
	if e.traced {
		simLayer = sample{}
	}
	t0 := time.Now()
	base, db, err := baseDay(e.seed, e.scale.basePeers, simLayer)
	if err != nil {
		return repOut{}, err
	}
	reports := replayDays(base, e.scale.replayDays)
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		return repOut{}, err
	}
	for i := range reports {
		if err := w.Submit(reports[i]); err != nil {
			return repOut{}, err
		}
	}
	if err := w.Flush(); err != nil {
		return repOut{}, err
	}
	encoded := buf.Bytes()
	sent := len(reports)

	var tr *stageTracer
	cfg := core.Config{}
	if e.traced {
		tr = newStageTracer()
		cfg.Tracer = tr
	}
	rt0 := readCounters()
	t1 := time.Now()
	store, err := trace.LoadStore(bytes.NewReader(encoded), trace.DefaultReportInterval)
	if err != nil {
		return repOut{}, fmt.Errorf("LoadStore: %w", err)
	}
	t2 := time.Now()
	ix := store.Seal()
	t3 := time.Now()
	res, err := core.Analyze(store, db, cfg)
	t4 := time.Now()
	rt1 := readCounters()
	peak := liveHeapMiB()
	if err != nil {
		return repOut{}, fmt.Errorf("core.Analyze: %w", err)
	}

	timed := t4.Sub(t1).Seconds()
	n := float64(store.Len())
	m := sample{
		"setup_s": t1.Sub(t0).Seconds(),
		// Peer time per second of core.Analyze alone, so that it is not
		// reports_per_s (the whole timed part) in other units.
		"peer_vsec_per_s": n * trace.DefaultReportInterval.Seconds() / t4.Sub(t3).Seconds(),
		"reports_per_s":   n / timed,
		"delivered_ratio": n / float64(sent),
		"peak_heap_mib":   peak,
	}
	addRuntime(m, rt0, rt1)
	for k, v := range simLayer {
		m[k] = v
	}
	indexed := 0
	for _, ep := range ix.Epochs() {
		indexed += len(ix.Reports(ep))
	}
	if e.traced {
		m["trace.decode_s"] = t2.Sub(t1).Seconds()
		m["trace.decode_mib"] = float64(len(encoded)) / (1 << 20)
		m["trace.seal_s"] = t3.Sub(t2).Seconds()
		m["trace.reports_indexed"] = float64(indexed)
		m["core.analyze_s"] = t4.Sub(t3).Seconds()
		for _, st := range []string{"epochs", "merge_days", "assemble", "epoch_scan", "active_graph", "reciprocity", "small_world", "degree_snapshot"} {
			m["core."+st+"_s"] = tr.seconds(st)
		}
		m["core.small_world_n"] = tr.count("small_world")
		// Named layers: decode, seal, and Analyze's top-level stages
		// (its own seal span hits the cached index).
		covered := m["trace.decode_s"] + m["trace.seal_s"] + tr.seconds("seal") +
			m["core.epochs_s"] + m["core.merge_days_s"] + m["core.assemble_s"]
		m["bench.uncovered_share"] = (timed - covered) / timed
	}

	e.check.expect(store.Len() == sent, "replay: LoadStore holds %d reports, %d were encoded", store.Len(), sent)
	e.check.expect(res.EpochCount == ix.NumEpochs() && res.EpochCount > 0,
		"replay: Analyze saw %d epochs, the index has %d", res.EpochCount, ix.NumEpochs())
	fp := ix.Fingerprint()
	return repOut{
		m:         m,
		attempted: int64(sent),
		failed:    int64(sent - store.Len()),
		fingerprints: map[string]string{
			"index":   hex.EncodeToString(fp[:]),
			"results": resultsDigest(res),
		},
	}, nil
}

// resultsDigest is a SHA-256 over every field of the analysis results,
// unexported ones included: map entries in sorted key order, floats
// bit-exact, times by their internal encoding. Two digests are equal iff the
// results are.
var timeType = reflect.TypeOf(time.Time{})

func resultsDigest(res *core.Results) string {
	h := sha256.New()
	var b []byte
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if v.IsNil() {
				b = append(b, "nil;"...)
				return
			}
			walk(v.Elem())
		case reflect.Struct:
			if v.Type() == timeType {
				// wall, ext and the location's name: equal instants built
				// by the same code path encode equally.
				b = strconv.AppendUint(b, v.Field(0).Uint(), 16)
				b = append(b, ',')
				b = strconv.AppendInt(b, v.Field(1).Int(), 16)
				if loc := v.Field(2); !loc.IsNil() {
					b = append(b, loc.Elem().Field(0).String()...)
				}
				b = append(b, ';')
				return
			}
			for i := 0; i < v.NumField(); i++ {
				b = append(b, v.Type().Field(i).Name...)
				b = append(b, '=')
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			b = strconv.AppendInt(b, int64(v.Len()), 10)
			b = append(b, '[')
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
			b = append(b, ']')
		case reflect.Map:
			keys := v.MapKeys()
			slices.SortFunc(keys, func(x, y reflect.Value) int {
				return strings.Compare(fmt.Sprint(x), fmt.Sprint(y))
			})
			b = append(b, '{')
			for _, k := range keys {
				walk(k)
				b = append(b, ':')
				walk(v.MapIndex(k))
			}
			b = append(b, '}')
		case reflect.Float32, reflect.Float64:
			b = strconv.AppendUint(b, math.Float64bits(v.Float()), 16)
			b = append(b, ';')
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			b = strconv.AppendInt(b, v.Int(), 10)
			b = append(b, ';')
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			b = strconv.AppendUint(b, v.Uint(), 10)
			b = append(b, ';')
		case reflect.Bool:
			b = strconv.AppendBool(b, v.Bool())
			b = append(b, ';')
		case reflect.String:
			b = strconv.AppendQuote(b, v.String())
		default:
			b = append(b, v.Kind().String()...)
		}
		if len(b) > 1<<16 {
			h.Write(b)
			b = b[:0]
		}
	}
	walk(reflect.ValueOf(res))
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

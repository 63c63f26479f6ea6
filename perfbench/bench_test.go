package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// TestWorkloadsSmoke runs every workload at smoke scale, untraced and
// traced, and checks that each prints exactly the declared metrics with
// their units and passes its output checks.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var log strings.Builder
				res, err := run(&log, w.name, 3, 0, traced, smokeScale)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, log.String())
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok {
						t.Errorf("metric %s missing", d.name)
						continue
					}
					if m.Unit != d.unit {
						t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if traced {
					for _, layer := range ownLayers[w.name] {
						if res.Metrics[layer].Value <= 0 {
							t.Errorf("traced %s: %s = %v, want > 0", w.name, layer, res.Metrics[layer].Value)
						}
					}
				}
				if !strings.Contains(log.String(), "# provenance: ") {
					t.Errorf("no provenance line:\n%s", log.String())
				}
			})
		}
	}
}

// ownLayers are per-layer metrics each workload must measure as nonzero.
var ownLayers = map[string][]string{
	"churn-10k":      {"sim.new_s", "sim.ramp_s", "sim.run_s", "sim.joins", "sim.reports", "sim.peer_vsec", "trace.store_submit_s", "trace.store_submit_n"},
	"replay-analyze": {"sim.new_s", "sim.run_s", "sim.joins", "trace.decode_s", "trace.decode_mib", "trace.seal_s", "trace.reports_indexed", "core.analyze_s", "core.epochs_s", "core.epoch_scan_s", "core.active_graph_s", "core.small_world_n"},
	"ingest-live":    {"sim.run_s", "sim.reports", "trace.store_submit_n", "trace.server_received", "trace.shard_skew", "trace.ingest_p50_ms", "trace.ingest_p99_ms", "live.observe_s", "live.observe_n", "live.finalize_n", "live.epochs_closed", "loadgen.sent"},
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with the ones the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the program lacks", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, program has %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestChecksFail makes sure a wrong pin and a broken expectation are
// reported as failures rather than passing silently.
func TestChecksFail(t *testing.T) {
	ck := &checker{log: io.Discard}
	checkPinned(ck, "churn-10k", defaultSeed, map[string]string{"index": "not-a-digest"})
	if len(ck.failures) != 1 {
		t.Fatalf("a wrong pinned fingerprint gave %d failures, want 1", len(ck.failures))
	}
	checkPinned(ck, "churn-10k", defaultSeed+1, map[string]string{"index": "not-a-digest"})
	if len(ck.failures) != 1 {
		t.Fatalf("pins apply to the default seed only; got %d failures", len(ck.failures))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
}

// Command perfbench is the repository's benchmark: it runs one named
// workload over the sim → ingest → analysis path with a given seed,
// checks the outputs, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as one JSON object on the last line
// of standard output. See README.md for the workloads and metrics.
//
//	perfbench --workload churn-10k --seed 1 --seconds 20 --trace 0
//	perfbench compare old.jsonl new.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// A metricDef names one reported metric and its unit; better says which
// direction is an improvement.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peer_vsec_per_s", "1/s", "higher"},
	{"reports_per_s", "1/s", "higher"},
	{"delivered_ratio", "1", "higher"},
	{"peak_heap_mib", "MiB", "lower"},
	{"alloc_mib", "MiB", "lower"},
}

// perLayer are the metrics a traced run prints, on every workload; a
// layer the workload does not call reads 0.
var perLayer = []metricDef{
	{"sim.new_s", "s", "lower"},
	{"sim.ramp_s", "s", "lower"},
	{"sim.run_s", "s", "lower"},
	{"sim.joins", "count", "higher"},
	{"sim.reports", "count", "higher"},
	{"sim.peer_vsec", "s", "higher"},
	{"trace.store_submit_s", "s", "lower"},
	{"trace.store_submit_n", "count", "higher"},
	{"trace.decode_s", "s", "lower"},
	{"trace.decode_mib", "MiB", "higher"},
	{"trace.seal_s", "s", "lower"},
	{"trace.reports_indexed", "count", "higher"},
	{"trace.server_received", "count", "higher"},
	{"trace.server_queue_drops", "count", "lower"},
	{"trace.server_rejected", "count", "lower"},
	{"trace.shard_skew", "1", "lower"},
	{"trace.backlog_drain_s", "s", "lower"},
	{"trace.ingest_p50_ms", "ms", "lower"},
	{"trace.ingest_p99_ms", "ms", "lower"},
	{"core.analyze_s", "s", "lower"},
	{"core.epochs_s", "s", "lower"},
	{"core.merge_days_s", "s", "lower"},
	{"core.assemble_s", "s", "lower"},
	{"core.epoch_scan_s", "s", "lower"},
	{"core.active_graph_s", "s", "lower"},
	{"core.reciprocity_s", "s", "lower"},
	{"core.small_world_s", "s", "lower"},
	{"core.small_world_n", "count", "higher"},
	{"core.degree_snapshot_s", "s", "lower"},
	{"live.observe_s", "s", "lower"},
	{"live.observe_n", "count", "higher"},
	{"live.finalize_s", "s", "lower"},
	{"live.finalize_n", "count", "higher"},
	{"live.epochs_closed", "count", "higher"},
	{"live.stragglers", "count", "lower"},
	{"live.drain_s", "s", "lower"},
	{"loadgen.sent", "count", "higher"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.late_max_ms", "ms", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"host.mem_probe_ns", "ns", "lower"},
	{"host.cpu_probe_ns", "ns", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.uncovered_share", "1", "lower"},
}

// A sample is one repetition's measurements, by metric name.
type sample map[string]float64

// repOut is what one repetition of a workload returns: its measurements,
// its operation counts, and the fingerprints of its outputs, which must
// agree across repetitions, traced or not.
type repOut struct {
	m            sample
	latencies    []float64 // open-loop latencies (ms), pooled over a run's untraced repetitions
	attempted    int64
	failed       int64
	fingerprints map[string]string
}

// env is what a repetition gets from the runner.
type env struct {
	seed   int64
	scale  scale
	traced bool
	check  *checker
	memo   *memo
	log    io.Writer
}

// A workload is one set of inputs. rep builds the inputs from the seed
// (set-up), runs the timed part, and checks the outputs.
type workload struct {
	name    string
	why     string
	primary string // the end-to-end metric the traced run's overhead is quoted on
	rep     func(e env) (repOut, error)
}

// workloads lists every workload the command runs. BENCHMARK.json gates
// replay-analyze and ingest-live; churn-10k is run by hand (see
// README.md for why it is not gated).
var workloads = []workload{
	{"churn-10k", "in-process sim at 10k mean peers into a trace.Store: the membership-bound sim plane", "peer_vsec_per_s", churnRep},
	{"replay-analyze", "a 14-day replayed trace through LoadStore, Seal and core.Analyze: the codec and analysis kernels", "reports_per_s", replayRep},
	{"ingest-live", "a 2-day replay sent open loop at 10k reports/s over UDP into a 2-shard fleet feeding live.Analyzer: ingest and live finalize cost", "reports_per_s", ingestRep},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// A scale sets the size of every workload; full is the benchmark, smoke
// is the self-test's (its figures are not comparable with full ones).
type scale struct {
	name       string
	churnPeers float64
	churnHours int // timed virtual hours after the 1-hour ramp
	basePeers  float64
	replayDays int
	ingestDays int
	ingestRate float64 // reports per wall second
	minReps    int
}

var (
	fullScale  = scale{"full", 10000, 2, 500, 14, 2, 10000, 2}
	smokeScale = scale{"smoke", 150, 1, 40, 3, 2, 20000, 1}
)

// checker counts failed output checks; each is also a failed operation.
type checker struct {
	log      io.Writer
	failures []string
}

func (c *checker) expect(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		c.failures = append(c.failures, msg)
		fmt.Fprintln(c.log, "# CHECK FAILED:", msg)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD NEW")
			os.Exit(2)
		}
		if err := compare(os.Stdout, os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "replay-analyze", "workload to run: replay-analyze, ingest-live or churn-10k")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 60, "wall seconds to keep repeating the workload for (at least the scale's minimum repetitions run)")
	traced := fs.Int("trace", 0, "1: alternate untraced and traced repetitions and print the per-layer metrics")
	fs.Parse(os.Args[1:]) //magellan:allow erridle — ExitOnError
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(os.Stdout, *name, *seed, *seconds, *traced == 1, fullScale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run repeats the workload while another repetition fits in seconds of
// wall time, or until the scale's minimum is done, then reports the median of
// each metric over the repetitions. Traced runs alternate untraced and
// traced repetitions, so the tracing overhead is measured within one
// process.
func run(log io.Writer, name string, seed int64, seconds float64, traced bool, sc scale) (*result, error) {
	w, ok := findWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	probe, cpu := memProbe(), cpuProbe()
	fmt.Fprintf(log, "# provenance: %s\n", provenance(seed, probe, cpu))
	fmt.Fprintf(log, "# workload %s (%s scale): %s\n", w.name, sc.name, w.why)

	ck := &checker{log: log}
	mo := newMemo()
	var plain, withTrace []sample
	var pooled []float64
	var attempted, failed int64
	fingerprints := map[string]string{}
	start := time.Now()
	for i := 0; ; i++ {
		tr := traced && i%2 == 1
		runtime.GC()
		out, err := w.rep(env{seed: seed, scale: sc, traced: tr, check: ck, memo: mo, log: log})
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", w.name, i, err)
		}
		attempted += out.attempted
		failed += out.failed
		for _, k := range sortedKeys(out.fingerprints) {
			v := out.fingerprints[k]
			if prev, seen := fingerprints[k]; seen {
				ck.expect(prev == v, "%s fingerprint %s differs between repetitions (traced=%v): %s vs %s", w.name, k, tr, prev, v)
			} else {
				fingerprints[k] = v
			}
		}
		kind := "untraced"
		if tr {
			kind = "traced"
			withTrace = append(withTrace, out.m)
		} else {
			plain = append(plain, out.m)
			pooled = append(pooled, out.latencies...)
		}
		fmt.Fprintf(log, "# rep %d %s: %s\n", i, kind, brief(out.m))
		enough := len(plain) >= sc.minReps
		if traced {
			enough = len(plain) >= 1 && len(withTrace) >= 1
		}
		// Stop before a repetition that would likely end past the
		// budget, so a run's length stays within --seconds.
		elapsed := time.Since(start).Seconds()
		if enough && elapsed+elapsed/float64(i+1) > seconds {
			break
		}
	}
	for _, k := range sortedKeys(fingerprints) {
		fmt.Fprintf(log, "# fingerprint %s %s\n", k, fingerprints[k])
	}
	if sc == fullScale {
		checkPinned(ck, w.name, seed, fingerprints)
	}

	res := &result{Attempted: attempted, Failed: failed + int64(len(ck.failures)), Metrics: map[string]jsonMetric{}}
	res.Correct = len(ck.failures) == 0
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	if !traced {
		for _, d := range endToEnd {
			res.Metrics[d.name] = jsonMetric{medianOf(plain, d.name), d.unit}
		}
		if len(pooled) > 0 {
			// Logged, not gated: the open-loop latencies follow the
			// host's load by more than the bounds allow (see README.md).
			fmt.Fprintf(log, "# ingest latency over %d reports: p50 %.4f ms p99 %.4f ms\n",
				len(pooled), quantile(pooled, 0.50), quantile(pooled, 0.99))
		}
		return res, nil
	}

	fmt.Fprintf(log, "# tracing overhead (traced vs untraced medians):\n")
	for _, d := range endToEnd {
		u, t := medianOf(plain, d.name), medianOf(withTrace, d.name)
		fmt.Fprintf(log, "#   %-16s untraced %-14.6g traced %-14.6g delta %+.2f%%\n", d.name, u, t, pct(t, u))
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = jsonMetric{medianOf(withTrace, d.name), d.unit}
	}
	res.Metrics["host.mem_probe_ns"] = jsonMetric{probe, "ns"}
	res.Metrics["host.cpu_probe_ns"] = jsonMetric{cpu, "ns"}
	u, t := medianOf(plain, w.primary), medianOf(withTrace, w.primary)
	over := pct(t, u)
	if betterOf(w.primary) == "higher" {
		over = pct(u, t)
	}
	res.Metrics["bench.trace_overhead_pct"] = jsonMetric{over, "%"}
	fmt.Fprintf(log, "# overhead on %s: %+.2f%% (positive = traced run slower)\n", w.primary, over)
	fmt.Fprintf(log, "# uncovered share of wall time: %.4f\n", res.Metrics["bench.uncovered_share"].Value)
	return res, nil
}

func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (a/b - 1) * 100
}

func betterOf(name string) string {
	for _, d := range endToEnd {
		if d.name == name {
			return d.better
		}
	}
	return "none"
}

func medianOf(ss []sample, name string) float64 {
	xs := make([]float64, 0, len(ss))
	for _, s := range ss {
		if v, ok := s[name]; ok {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// brief renders a repetition's end-to-end metrics on one line.
func brief(s sample) string {
	var b strings.Builder
	for _, d := range endToEnd {
		if v, ok := s[d.name]; ok {
			fmt.Fprintf(&b, "%s=%.6g ", d.name, v)
		}
	}
	return strings.TrimSpace(b.String())
}

// provenance names the host and build a result came from.
func provenance(seed int64, probeNs, cpuNs float64) string {
	p := map[string]any{
		"cpu":          cpuModel(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"commit":       commit(),
		"seed":         seed,
		"mem_probe_ns": probeNs,
		"cpu_probe_ns": cpuNs,
	}
	b, _ := json.Marshal(p) // a map of plain values cannot fail to encode
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary, when the build
// ran inside a git checkout.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// compare prints, for each workload and metric found in two files of
// result lines, each side's median and quartiles and the change of the
// medians. Lines that are not result objects are skipped, so the files
// can be whole captured outputs.
func compare(w io.Writer, oldPath, newPath string) error {
	oldRes, err := readResults(oldPath)
	if err != nil {
		return err
	}
	newRes, err := readResults(newPath)
	if err != nil {
		return err
	}
	names := map[string]bool{}
	for k := range oldRes {
		names[k] = true
	}
	for k := range newRes {
		names[k] = true
	}
	fmt.Fprintf(w, "%-34s %8s %36s %36s %9s\n", "metric", "runs", "old q1 / median / q3", "new q1 / median / q3", "median Δ")
	for _, k := range sortedKeys(names) {
		o, n := oldRes[k], newRes[k]
		fmt.Fprintf(w, "%-34s %3d/%-4d %36s %36s %+8.2f%%\n", k, len(o), len(n), quartiles(o), quartiles(n), pct(median(n), median(o)))
	}
	return nil
}

func quartiles(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.5g / %.5g / %.5g", quantile(xs, 0.25), median(xs), quantile(xs, 0.75))
}

// readResults collects every metric value of every result line in a
// file, keyed by metric name.
func readResults(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil || r.Metrics == nil {
			continue
		}
		for k, m := range r.Metrics {
			out[k] = append(out[k], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no result lines", path)
	}
	for k := range out {
		slices.Sort(out[k])
	}
	return out, nil
}

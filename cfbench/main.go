// Command cfbench is the repository benchmark. It runs one workload
// through the program's exported Go packages, checks every verdict
// against known answers, and prints the metrics BENCHMARK.json names as
// one JSON object on the last line of standard output. Detail lines
// before it start with "#".
//
// Run it through the wrapper, from the repository root:
//
//	bash cfbench/run.sh --workload paper-relaxed --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run;
// with --trace 1 it runs the same inputs untraced and then traced, and
// prints the per-layer metrics, the tracing overhead, and writes the
// spans to --spans (default .bench_build/spans-<workload>.jsonl).
// --quick shrinks every workload for the self-test.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// The metrics this benchmark prints; BENCHMARK.json declares the same
// names and units (the self-test checks that they agree).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"check_geomean_ms", "ms"},
	{"req_p50_ms", "ms"},
	{"req_p95_ms", "ms"},
	{"peak_rss_mb", "MiB"},
	{"alloc_mb", "MiB"},
	{"ok_frac", "frac"},
}

var perLayer = []metricDef{
	{"core.probe_ms", "ms"},
	{"core.bound_rounds", "count"},
	{"core.inclusion_passes", "count"},
	{"spec.mine_ms", "ms"},
	{"spec.mine_iterations", "count"},
	{"spec.inclusion_ms", "ms"},
	{"encode.encode_ms", "ms"},
	{"encode.cnf_clauses", "count"},
	{"sat.preprocess_ms", "ms"},
	{"sat.search_ms", "ms"},
	{"sat.conflicts", "count"},
	{"sat.propagations", "count"},
	{"harness.build_ms", "ms"},
	{"harness.unroll_ms", "ms"},
	{"harness.unroll_calls", "count"},
	{"ranges.analyze_ms", "ms"},
	{"trace.decode_ms", "ms"},
	{"validate.check_ms", "ms"},
	{"rf.checks", "count"},
	{"rf.fallbacks", "count"},
	{"core.speccache_hit_frac", "frac"},
	{"core.sweep_groups", "count"},
	{"core.encodes_reused", "count"},
	{"daemon.admit_ms", "ms"},
	{"daemon.check_ms", "ms"},
	{"daemon.overhead_ms", "ms"},
	{"daemon.refused", "count"},
	{"fleet.plan_ms", "ms"},
	{"fleet.lease_wait_ms", "ms"},
	{"fleet.cube_work_ms", "ms"},
	{"fleet.transport_ms", "ms"},
	{"fleet.poll_useful_frac", "frac"},
	{"fleet.requeues", "count"},
	{"fleet.local_fallbacks", "count"},
	{"bench.trace_overhead_ms", "ms"},
	{"bench.span_coverage_min", "frac"},
	{"host.steal_ticks", "count"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	spans    string
	out      io.Writer
}

// detail prints one "#"-prefixed detail line.
func (c *config) detail(format string, args ...any) {
	fmt.Fprintf(c.out, "# "+format+"\n", args...)
}

// passOut is what one pass of a workload's fixed work produced.
type passOut struct {
	// checkMS holds the time to a verdict of each check: per row (the
	// median of its checks) on paper-relaxed, per request on
	// service-mixed. The req_* percentiles are taken over it too.
	checkMS   []float64
	attempted int
	ok        int  // checks that returned the known answer in time
	correct   bool // false when an answer contradicts the known-answer table
}

// workload is one benchmark workload. setup prepares an instance (it
// is repeated, and the timed passes use the last instance), run does
// one pass of the fixed work, recording spans when tr is non-nil,
// reset readies the instance for another pass outside the timed
// region, and layers turns a traced pass into per-layer metrics.
type workload interface {
	setup() error
	run(tr *tracer) (*passOut, error)
	reset() error
	layers(tr *tracer) (map[string]float64, error)
	close()
}

// workloads maps each workload to its constructor and to how many
// times set-up runs; setup_s is the median of those.
var workloads = map[string]struct {
	mk        func(*config) workload
	setupReps int
}{
	"paper-relaxed": {newPaper, 5},
	"service-mixed": {newService, 3},
	"fleet-2w":      {newFleet, 5},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("cfbench", flag.ContinueOnError)
	cfg := &config{out: stdout}
	fs.StringVar(&cfg.workload, "workload", "", "paper-relaxed, service-mixed or fleet-2w")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's input order and traffic mix")
	fs.IntVar(&cfg.seconds, "seconds", 10, "minimum measured time; whole passes repeat until it is reached")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	fs.BoolVar(&cfg.quick, "quick", false, "shrink every workload (self-test)")
	fs.StringVar(&cfg.spans, "spans", "", "span output file of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	if cfg.spans == "" {
		cfg.spans = ".bench_build/spans-" + cfg.workload + ".jsonl"
	}
	wl, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "cfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	res, err := measure(cfg, wl.mk, wl.setupReps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measure sets the workload up setupReps times, then runs and measures
// it, and assembles the result line.
func measure(cfg *config, mk func(*config) workload, setupReps int) (*result, error) {
	start := readHost("start")
	cfg.detail("workload %s seed %d seconds %d trace %v quick %v", cfg.workload, cfg.seed,
		cfg.seconds, cfg.trace, cfg.quick)
	printHost(cfg, start)

	var (
		w      workload
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		w = mk(cfg)
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	cfg.detail("setup_s samples %v", setups)

	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	var (
		outs   []*passOut
		passes []pass
	)
	runPass := func(tr *tracer) (pass, error) {
		if len(outs) > 0 {
			if err := w.reset(); err != nil {
				return pass{}, err
			}
		}
		u := readUsage()
		out, err := w.run(tr)
		if err != nil {
			return pass{}, err
		}
		p := since(u)
		outs = append(outs, out)
		return p, nil
	}
	if !cfg.trace {
		t0 := time.Now()
		for len(passes) == 0 || time.Since(t0) < time.Duration(cfg.seconds)*time.Second {
			p, err := runPass(nil)
			if err != nil {
				return nil, err
			}
			passes = append(passes, p)
		}
	} else {
		plain, err := runPass(nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		traced, err := runPass(tr)
		if err != nil {
			return nil, err
		}
		layers, err := w.layers(tr)
		if err != nil {
			return nil, err
		}
		layers["bench.trace_overhead_ms"] = ms(traced.wall - plain.wall)
		cfg.detail("tracing overhead: untraced %.1f ms, traced %.1f ms", ms(plain.wall), ms(traced.wall))
		if err := tr.write(cfg.spans); err != nil {
			return nil, err
		}
		cfg.detail("spans written to %s", cfg.spans)
		layers["host.steal_ticks"] = float64(stealTicks() - start.StealTicks)
		for _, m := range perLayer {
			v, ok := layers[m.name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s not produced", m.name)
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
		passes = append(passes, plain)
	}

	var walls, cpus, allocs, checks []float64
	ok := 0
	for i, p := range passes {
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		allocs = append(allocs, p.allocMB)
		cfg.detail("pass %d: wall %.3f s cpu %.3f s alloc %.1f MiB", i, p.wall.Seconds(), p.cpu.Seconds(), p.allocMB)
	}
	for _, o := range outs {
		checks = append(checks, o.checkMS...)
		res.Attempted += o.attempted
		ok += o.ok
		res.Correct = res.Correct && o.correct
	}
	res.Failed = res.Attempted - ok
	if res.Attempted == 0 {
		return nil, errors.New("no checks attempted")
	}
	if !cfg.trace {
		e2e := map[string]float64{
			"setup_s":          median(setups),
			"wall_s":           median(walls),
			"cpu_s":            median(cpus),
			"check_geomean_ms": geomean(checks),
			"req_p50_ms":       quantile(checks, 0.5),
			"req_p95_ms":       quantile(checks, tailQ(len(checks))),
			"peak_rss_mb":      peakRSSMB(),
			"alloc_mb":         median(allocs),
			"ok_frac":          float64(ok) / float64(res.Attempted),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
		q := tailQ(len(checks))
		cfg.detail("req_p95_ms is p%.0f of %d samples (%.0f beyond it)", 100*q, len(checks), (1-q)*float64(len(checks)))
	}
	end := readHost("end")
	printHost(cfg, end)
	cfg.detail("steal ticks during run: %d", end.StealTicks-start.StealTicks)
	printMetrics(cfg, res)
	return res, nil
}

// tailQ is the quantile req_p95_ms reports over n samples: p95 when at
// least ten samples lie beyond it, otherwise the highest quantile with
// ten beyond, but never below the median. With the 19 rows of
// paper-relaxed or the 2 checks of fleet-2w that is the median.
func tailQ(n int) float64 {
	return math.Min(0.95, math.Max(0.5, 1-10/float64(n)))
}

func printHost(cfg *config, h hostRecord) {
	b, _ := json.Marshal(h) // plain struct of strings and ints
	cfg.detail("host %s", b)
}

func printMetrics(cfg *config, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		cfg.detail("metric %-26s %14.4f %s", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	cfg.detail("checks attempted %d, failed %d, correct %v", res.Attempted, res.Failed, res.Correct)
}

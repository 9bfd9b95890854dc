// Command bench is the end-to-end benchmark of this repository: six
// whole-application workloads (Cholesky, FW-APSP, bspmm, MRA on the real
// backends, in-process and over loopback TCP), four bounded end-to-end
// metrics per workload, and per-layer attribution measured from outside
// the program. BENCHMARK.json at the repository root names the same
// workloads and metrics; README.md in this directory explains them.
//
//	go run ./bench -seed 1                      every workload, every metric
//	go run ./bench -workload fw_tcp -reps 20    one workload, end-to-end only
//	bash bench/run.sh --workload fw_tcp --seed 3 --seconds 10 --trace 0|1
//
// The last form is the one BENCHMARK.json's command takes: it measures for
// the given time and prints one JSON object as the last line of standard
// output, the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEndDefs and perLayerDefs list every metric this command reports,
// in print order. BENCHMARK.json must list the same names and units;
// checkManifest enforces it.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"tasks_per_s", "1/s"},
	{"alloc_mb_per_run", "MB"},
}

var perLayerDefs = []metricDef{
	{"lapack.gemm_gflops_nb16", "GF/s"},
	{"lapack.gemm_gflops_nb128", "GF/s"},
	{"lapack.potrf_gflops_nb128", "GF/s"},
	{"lapack.fwd_gflops_nb32", "GF/s"},
	{"core.match_ns_per_msg", "ns"},
	{"core.match_ops", "count"},
	{"sched.dispatch_ns_per_task", "ns"},
	{"sched.steal_hit_ratio", "ratio"},
	{"sched.inline_ratio", "ratio"},
	{"sched.tasks_stolen", "count"},
	{"serde.tile_encode_mb_s_8k", "MB/s"},
	{"serde.tile_encode_mb_s_128k", "MB/s"},
	{"serde.tile_decode_mb_s_128k", "MB/s"},
	{"serde.treemsg_encode_ns", "ns"},
	{"serde.gather_sends", "count"},
	{"serde.copy_sends", "count"},
	{"serde.view_decodes", "count"},
	{"coalesce.msgs_per_packet", "ratio"},
	{"coalesce.wire_packets", "count"},
	{"netfab.pingpong_us", "us"},
	{"netfab.bw_mb_s_128k", "MB/s"},
	{"netfab.bytes_on_wire_mb", "MB"},
	{"netfab.msgs", "count"},
	{"pool.get_put_ns_128k", "ns"},
	{"alloc.bytes_per_task", "B"},
	{"run.body_s", "s"},
	{"run.crit_busy_s", "s"},
	{"run.crit_gap_s", "s"},
	{"run.overhead_us_per_task", "us"},
	{"run.worker_idle_frac", "ratio"},
	{"run.trace_overhead_frac", "ratio"},
	{"run.events_dropped", "count"},
	{"scale.eff_2r", "ratio"},
}

// checkManifest fails when BENCHMARK.json (read from the working
// directory, the repository root) and this command disagree on workload
// or metric names or units, so the two cannot drift apart unnoticed.
func checkManifest() error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	type named struct{ Name, Unit string }
	var man struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	same := func(what string, listed []named, have []metricDef) error {
		var a, b []string
		for _, n := range listed {
			a = append(a, n.Name+" "+n.Unit)
		}
		for _, d := range have {
			b = append(b, d.name+" "+d.unit)
		}
		sort.Strings(a)
		sort.Strings(b)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			return fmt.Errorf("BENCHMARK.json %s are %q, this command has %q", what, a, b)
		}
		return nil
	}
	var ws []metricDef
	for _, w := range workloads {
		ws = append(ws, metricDef{name: w.name})
	}
	if err := same("workloads", man.Workloads, ws); err != nil {
		return err
	}
	if err := same("end_to_end metrics", man.EndToEnd, endToEndDefs); err != nil {
		return err
	}
	return same("per_layer metrics", man.PerLayer, perLayerDefs)
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// pick returns the declared metrics from m in order, or an error naming
// the first one missing.
func pick(m metrics, defs []metricDef) (metrics, error) {
	out := metrics{}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if v.Unit != d.unit {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.name, v.Unit, d.unit)
		}
		out[d.name] = v
	}
	return out, nil
}

// printMetrics prints the metrics of m that defs declares, in that order,
// leaving out those in skip.
func printMetrics(m, skip metrics, defs []metricDef) {
	for _, d := range defs {
		if _, skipped := skip[d.name]; skipped {
			continue
		}
		if v, ok := m[d.name]; ok {
			fmt.Printf("  %-30s %14.6g %s\n", d.name, v.Value, v.Unit)
		}
	}
}

// report prints one workload's numbers for a reader; printed are the
// layer probes' values already shown, which it leaves out.
func report(rn *runner, multiCore bool, printed metrics) {
	w := rn.w
	fmt.Printf("workload %s: %d ranks x %d workers, tcp=%v, %s preset, %d nominal tasks\n",
		w.name, w.ranks, w.workers, w.tcp, w.backend, w.tasks)
	if w.totalWorkers() > 1 && !multiCore {
		fmt.Printf("  UNRESOLVED: %s needs at least 2 CPUs; its times below measure time-slicing, not the runtime\n", w.name)
	}
	if rn.endToEnd != nil {
		q1, med, q3 := quartiles(rn.walls)
		fmt.Printf("  wall_s samples: n=%d fastest=%.4f q1=%.4f median=%.4f q3=%.4f iqr/median=%.3f in order %.4f\n",
			len(rn.walls), slices.Min(rn.walls), q1, med, q3, iqrFrac(rn.walls), rn.walls)
		printMetrics(rn.endToEnd, nil, endToEndDefs)
	}
	fmt.Printf("  %-30s %14.6g ratio (%d of %d repetitions)\n", "failed_frac",
		ratio(float64(rn.failed), float64(rn.attempted)), rn.failed, rn.attempted)
	if rn.perLayer != nil {
		printMetrics(rn.perLayer, printed, perLayerDefs)
		if w.totalWorkers() > 1 && !multiCore {
			fmt.Printf("  UNRESOLVED: scale.eff_2r needs at least 2 CPUs\n")
		}
		over := rn.perLayer["run.trace_overhead_frac"].Value
		verdict := "within 5%"
		if over > 0.05 || over < -0.05 {
			verdict = "NOT within 5%: tracing cost, or the machine's speed changed between the two legs"
		}
		fmt.Printf("  closure: traced body + idle + overhead = traced wall x workers by construction; "+
			"it is %+.1f%% off the untraced wall x workers (%s)\n", 100*over, verdict)
	}
}

// verdictLine is the machine-readable last line of standard output.
type verdictLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func emit(v verdictLine) {
	out, err := json.Marshal(v)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func mustProbe() metrics {
	probes := metrics{}
	if err := probeLayers(probes); err != nil {
		fail(err)
	}
	return probes
}

func main() {
	name := flag.String("workload", "", "run only this workload (default: all six)")
	seed := flag.Int64("seed", 1, "seed for generated inputs and for the result checks' samples")
	reps := flag.Int("reps", 9, "timed repetitions per workload (after one warm-up)")
	seconds := flag.Float64("seconds", 0, "measure for this long instead of -reps repetitions")
	traceMode := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if err := checkManifest(); err != nil {
		fail(err)
	}
	b := budget{reps: *reps, seconds: *seconds}
	multiCore := runtime.NumCPU() >= 2
	fmt.Printf("env: cores=%d gomaxprocs=%d go=%s %s/%s cpu=%q seed=%d\n", runtime.NumCPU(),
		runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel(), *seed)

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fail(fmt.Errorf("unknown workload %q", *name))
		}
		rn := &runner{w: w, seed: *seed}
		var measured metrics
		defs := endToEndDefs
		if *traceMode == 1 {
			rn.measureLayers(b, mustProbe())
			measured, defs = rn.perLayer, perLayerDefs
		} else {
			rn.measureEndToEnd(b)
			measured = rn.endToEnd
		}
		report(rn, multiCore, nil)
		m, err := pick(measured, defs)
		if err != nil {
			fail(fmt.Errorf("%s: %w", w.name, err))
		}
		emit(verdictLine{rn.failed == 0, rn.attempted, rn.failed, m})
		if rn.failed > 0 {
			os.Exit(1)
		}
		return
	}

	// Every workload: end-to-end repetitions, then three traced rounds (one
	// round's legs are single samples, too noisy to compare with each other).
	all := verdictLine{Correct: true, Metrics: metrics{}}
	probes := mustProbe()
	fmt.Println("layer probes (the same for every workload):")
	printMetrics(probes, nil, perLayerDefs)
	for k, v := range probes {
		all.Metrics[k] = v
	}
	for _, w := range workloads {
		rn := &runner{w: w, seed: *seed}
		rn.measureEndToEnd(b)
		if !rn.wedged {
			rn.measureLayers(budget{reps: 3}, probes)
		}
		report(rn, multiCore, probes)
		all.Attempted += rn.attempted
		all.Failed += rn.failed
		for _, part := range []metrics{rn.endToEnd, rn.perLayer} {
			for k, v := range part {
				if _, probe := probes[k]; !probe {
					all.Metrics[w.name+"."+k] = v
				}
			}
		}
		if rn.endToEnd == nil || rn.perLayer == nil {
			all.Correct = false
		}
	}
	all.Correct = all.Correct && all.Failed == 0
	emit(all)
	if !all.Correct {
		os.Exit(1)
	}
}

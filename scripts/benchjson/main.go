// benchjson folds `go test -bench` output into a committed BENCH_*.json
// baseline. It refreshes the environment block and the benchmarks array
// from the run on stdin, recomputes the summary fields named by flags,
// and carries everything else over from the existing file: per-benchmark
// workload annotations (matched by name), prose notes, structural metrics
// that come from tests rather than timers (e.g. BENCH_reduce's
// sim_counters), and summary keys no flag recomputes.
//
// Usage:
//
//	go test . -run xxx -bench Comm -benchmem | \
//	  go run ./scripts/benchjson -out BENCH_comm.json \
//	    -ratio pipelined_broadcast_speedup=BenchmarkCommBroadcastStoreForward:BenchmarkCommBroadcastPipelined
//
// Flags (k is a summary key; A, B are benchmark names from the run):
//
//	-out FILE        baseline to update (merged in place)
//	-summary KEY     top-level summary object name (default "summary";
//	                 BENCH_data uses "headline")
//	-ratio k=A:B     k = ns(A) / ns(B), the speedup of B over A
//	-us k=A          k = ns(A) in microseconds
//	-maxmbs k=P      k = max MB/s across benchmarks whose name starts with P
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type benchLine struct {
	name   string
	ns     float64
	mbs    float64
	bytes  int64
	allocs int64
	hasMBs bool
	hasMem bool
}

var lineRe = regexp.MustCompile(
	`^(Benchmark\S+?)(-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) MB/s)?(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

type kvList []string

func (l *kvList) String() string     { return strings.Join(*l, ",") }
func (l *kvList) Set(s string) error { *l = append(*l, s); return nil }

func main() {
	var (
		out        = flag.String("out", "", "baseline JSON file to update")
		summaryKey = flag.String("summary", "summary", "name of the summary object")
		ratios     kvList
		micros     kvList
		maxMBs     kvList
	)
	flag.Var(&ratios, "ratio", "k=A:B: summary k = ns(A)/ns(B)")
	flag.Var(&micros, "us", "k=A: summary k = ns(A) in microseconds")
	flag.Var(&maxMBs, "maxmbs", "k=P: summary k = max MB/s over names with prefix P")
	flag.Parse()
	if *out == "" {
		fatal("benchjson: -out is required")
	}

	runs, cpu := parse(os.Stdin)
	if len(runs) == 0 {
		fatal("benchjson: no benchmark lines on stdin")
	}
	byName := map[string]benchLine{}
	for _, b := range runs {
		byName[b.name] = b
	}

	// Existing baseline: raw top-level keys so unknown sections survive.
	top := map[string]json.RawMessage{}
	if raw, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(raw, &top); err != nil {
			fatal("benchjson: parse %s: %v", *out, err)
		}
	}

	// Carry workload annotations over by benchmark name.
	workloads := map[string]string{}
	if raw, ok := top["benchmarks"]; ok {
		var old []map[string]any
		if err := json.Unmarshal(raw, &old); err == nil {
			for _, b := range old {
				if n, ok := b["name"].(string); ok {
					if w, ok := b["workload"].(string); ok {
						workloads[n] = w
					}
				}
			}
		}
	}

	summary := map[string]any{}
	if raw, ok := top[*summaryKey]; ok {
		if err := json.Unmarshal(raw, &summary); err != nil {
			fatal("benchjson: parse %s.%s: %v", *out, *summaryKey, err)
		}
	}
	var computed []string
	need := func(name string) benchLine {
		b, ok := byName[name]
		if !ok {
			fatal("benchjson: benchmark %q not in this run", name)
		}
		return b
	}
	for _, s := range ratios {
		k, a, b := splitRatio(s)
		summary[k] = round(need(a).ns/need(b).ns, 100)
		computed = append(computed, k)
	}
	for _, s := range micros {
		k, a := splitKV(s)
		summary[k] = round(need(a).ns/1000, 10)
		computed = append(computed, k)
	}
	for _, s := range maxMBs {
		k, p := splitKV(s)
		best, found := 0.0, false
		for _, b := range runs {
			if strings.HasPrefix(b.name, p) && b.hasMBs {
				found = true
				if b.mbs > best {
					best = b.mbs
				}
			}
		}
		if !found {
			fatal("benchjson: no MB/s benchmarks with prefix %q", p)
		}
		summary[k] = best
		computed = append(computed, k)
	}

	env := map[string]any{
		"goos":   runtime.GOOS,
		"goarch": runtime.GOARCH,
		"cpu":    cpu,
		"cores":  runtime.NumCPU(),
		"date":   time.Now().Format("2006-01-02"),
	}

	var buf bytes.Buffer
	buf.WriteString("{\n")
	writeKey(&buf, "description", top["description"])
	writeKey(&buf, "environment", marshal(orderedEnv(env)))
	writeKey(&buf, "benchmarks", marshalBenches(runs, workloads))
	rest := []string{}
	for k := range top {
		if k != "description" && k != "environment" && k != "benchmarks" && k != *summaryKey {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	for _, k := range rest {
		writeKey(&buf, k, top[k])
	}
	if len(summary) > 0 {
		writeKey(&buf, *summaryKey, marshalSummary(summary, computed))
	}
	buf.Truncate(buf.Len() - 2) // trailing ",\n"
	buf.WriteString("\n}\n")

	var pretty bytes.Buffer
	if err := json.Indent(&pretty, buf.Bytes(), "", "  "); err != nil {
		fatal("benchjson: internal: produced invalid JSON: %v", err)
	}
	pretty.WriteByte('\n')
	if err := os.WriteFile(*out, pretty.Bytes(), 0o644); err != nil {
		fatal("benchjson: %v", err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks, %d summary fields recomputed)\n",
		*out, len(runs), len(computed))
}

func parse(f *os.File) ([]benchLine, string) {
	var runs []benchLine
	cpu := "unknown"
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = strings.TrimSpace(rest)
			continue
		}
		m := lineRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		b := benchLine{name: m[1]}
		b.ns, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			b.mbs, _ = strconv.ParseFloat(m[4], 64)
			b.hasMBs = true
		}
		if m[5] != "" {
			b.bytes, _ = strconv.ParseInt(m[5], 10, 64)
			b.allocs, _ = strconv.ParseInt(m[6], 10, 64)
			b.hasMem = true
		}
		runs = append(runs, b)
	}
	return runs, cpu
}

func marshalBenches(runs []benchLine, workloads map[string]string) json.RawMessage {
	var buf bytes.Buffer
	buf.WriteString("[")
	for i, b := range runs {
		if i > 0 {
			buf.WriteString(",")
		}
		buf.WriteString("{")
		fmt.Fprintf(&buf, `"name":%s`, marshal(b.name))
		if w, ok := workloads[b.name]; ok {
			fmt.Fprintf(&buf, `,"workload":%s`, marshal(w))
		}
		fmt.Fprintf(&buf, `,"ns_per_op":%s`, marshal(b.ns))
		if b.hasMBs {
			fmt.Fprintf(&buf, `,"mb_per_s":%s`, marshal(b.mbs))
		}
		if b.hasMem {
			fmt.Fprintf(&buf, `,"bytes_per_op":%d,"allocs_per_op":%d`, b.bytes, b.allocs)
		}
		buf.WriteString("}")
	}
	buf.WriteString("]")
	return buf.Bytes()
}

// marshalSummary emits the recomputed keys first, in flag order, then the
// carried-over keys sorted.
func marshalSummary(summary map[string]any, computed []string) json.RawMessage {
	seen := map[string]bool{}
	order := []string{}
	for _, k := range computed {
		if !seen[k] {
			seen[k] = true
			order = append(order, k)
		}
	}
	rest := []string{}
	for k := range summary {
		if !seen[k] {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	order = append(order, rest...)
	var buf bytes.Buffer
	buf.WriteString("{")
	for i, k := range order {
		if i > 0 {
			buf.WriteString(",")
		}
		fmt.Fprintf(&buf, "%s:%s", marshal(k), marshal(summary[k]))
	}
	buf.WriteString("}")
	return buf.Bytes()
}

func orderedEnv(env map[string]any) json.RawMessage {
	var buf bytes.Buffer
	buf.WriteString("{")
	for i, k := range []string{"goos", "goarch", "cpu", "cores", "date"} {
		if i > 0 {
			buf.WriteString(",")
		}
		fmt.Fprintf(&buf, "%s:%s", marshal(k), marshal(env[k]))
	}
	buf.WriteString("}")
	return buf.Bytes()
}

func writeKey(buf *bytes.Buffer, k string, v json.RawMessage) {
	if v == nil {
		v = []byte(`""`)
	}
	fmt.Fprintf(buf, "%s: %s,\n", marshal(k), v)
}

func marshal(v any) json.RawMessage {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // keep "->" and friends readable in notes
	if err := enc.Encode(v); err != nil {
		fatal("benchjson: marshal: %v", err)
	}
	return bytes.TrimRight(buf.Bytes(), "\n")
}

func splitRatio(s string) (k, a, b string) {
	k, v := splitKV(s)
	a, b, ok := strings.Cut(v, ":")
	if !ok {
		fatal("benchjson: ratio %q: want k=A:B", s)
	}
	return k, a, b
}

func splitKV(s string) (string, string) {
	k, v, ok := strings.Cut(s, "=")
	if !ok {
		fatal("benchjson: flag value %q: want k=v", s)
	}
	return k, v
}

func round(x float64, scale float64) float64 {
	return math.Round(x*scale) / scale
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

package live

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serde"
)

// Sample is one instantaneous metric value pushed by a Collector.
type Sample struct {
	Name string
	// Rank labels the series (rank="N"); negative means no rank label.
	Rank int
	// Peer adds a peer="N" label when HasPeer is set — per-link series of
	// a real-network fabric endpoint.
	Peer    int
	HasPeer bool
	// Counter marks a monotonically increasing total (rendered with the
	// counter type and _total suffix); the default is a gauge.
	Counter bool
	Value   float64
}

// Collector is a pull source of live gauges; backend.Proc implements it
// (pending shells, deque depths, termination-detector activity, per-peer
// fabric counters).
type Collector interface {
	CollectLive(emit func(Sample))
}

// ContentType is the OpenMetrics text media type the exporter serves.
const ContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// Exporter renders the session's per-rank metric registries plus
// collector samples as OpenMetrics text. It only
// reads atomics (Session.LiveReport and the collectors' own lock-free
// sources), so scraping a run in flight is safe and cheap. Register it on a mux at "/metrics".
type Exporter struct {
	// Session, when set, contributes every registry counter, gauge, and
	// histogram, as series labeled by rank.
	Session *obs.Session
	// Collectors contribute instantaneous gauges not kept in a registry.
	Collectors []Collector
}

// ServeHTTP implements http.Handler.
func (e *Exporter) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", ContentType)
	_ = e.Export(w)
}

// metricFamily gathers one exposition family: a TYPE line plus its series.
type metricFamily struct {
	typ   string
	lines []string
}

// Export renders the OpenMetrics exposition, terminated by "# EOF".
func (e *Exporter) Export(w io.Writer) error {
	fams := map[string]*metricFamily{}
	fam := func(name, typ string) *metricFamily {
		f := fams[name]
		if f == nil {
			f = &metricFamily{typ: typ}
			fams[name] = f
		}
		return f
	}

	// registry renders one rank's registry snapshot; labels is `rank="N"`.
	registry := func(snap obs.RegistrySnapshot, labels string) {
		label := braces(labels)
		for _, name := range sortedKeys(snap.Counters) {
			n := sanitizeMetricName(name)
			f := fam(n, "counter")
			f.lines = append(f.lines, fmt.Sprintf("%s_total%s %d", n, label, snap.Counters[name]))
		}
		for _, name := range sortedKeys(snap.Gauges) {
			gv := snap.Gauges[name]
			n := sanitizeMetricName(name)
			f := fam(n, "gauge")
			f.lines = append(f.lines, fmt.Sprintf("%s%s %d", n, label, gv.Value))
			fm := fam(n+"_hwm", "gauge")
			fm.lines = append(fm.lines, fmt.Sprintf("%s_hwm%s %d", n, label, gv.Max))
		}
		for _, name := range sortedKeys(snap.Hists) {
			n := sanitizeMetricName(name)
			f := fam(n, "histogram")
			f.lines = append(f.lines, histSeries(n, labels, snap.Hists[name])...)
		}
	}

	if e.Session != nil {
		lr := e.Session.LiveReport()
		ranks := make([]int, 0, len(lr.PerRank))
		for r := range lr.PerRank {
			ranks = append(ranks, r)
		}
		sort.Ints(ranks)
		for _, r := range ranks {
			registry(lr.PerRank[r], fmt.Sprintf(`rank="%d"`, r))
		}
		f := fam("obs_events_dropped", "gauge")
		f.lines = append(f.lines, fmt.Sprintf("obs_events_dropped %d", lr.Dropped))
	}

	{
		f := fam("data_tracked_live", "gauge")
		f.lines = append(f.lines, fmt.Sprintf("data_tracked_live %d", core.LiveTrackedHandles()))
	}

	{
		// Process-global like data_tracked_live: one unlabeled series for
		// the receive views currently leasing pooled buffers.
		n := sanitizeMetricName(obs.GaugeRecvViews)
		f := fam(n, "gauge")
		f.lines = append(f.lines, fmt.Sprintf("%s %d", n, serde.LiveRecvViews()))
	}

	for _, c := range e.Collectors {
		c.CollectLive(func(s Sample) {
			n := sanitizeMetricName(s.Name)
			var labels []string
			if s.Rank >= 0 {
				labels = append(labels, fmt.Sprintf(`rank="%d"`, s.Rank))
			}
			if s.HasPeer {
				labels = append(labels, fmt.Sprintf(`peer="%d"`, s.Peer))
			}
			label := braces(strings.Join(labels, ","))
			typ, suffix := "gauge", ""
			if s.Counter {
				typ, suffix = "counter", "_total"
			}
			f := fam(n, typ)
			f.lines = append(f.lines, fmt.Sprintf("%s%s%s %s", n, suffix, label, formatFloat(s.Value)))
		})
	}

	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		f := fams[n]
		fmt.Fprintf(&b, "# TYPE %s %s\n", n, f.typ)
		for _, line := range f.lines {
			b.WriteString(line)
			b.WriteString("\n")
		}
	}
	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// histSeries renders one log₂ histogram as cumulative le buckets, each
// series carrying labels (empty for an unlabeled series). Bucket Log2=l
// holds values v with bits.Len64(v)==l, i.e. v <= 2^l - 1, so the exact
// upper bound of the cumulative count through bucket l is 2^l - 1 (and 0
// for the zero bucket).
func histSeries(name, labels string, hs obs.HistSnapshot) []string {
	le := "{"
	if labels != "" {
		le += labels + ","
	}
	var out []string
	var cum int64
	for _, bk := range hs.Buckets {
		cum += bk.Count
		out = append(out, fmt.Sprintf(`%s_bucket%sle="%s"} %d`,
			name, le, formatFloat(bucketUpper(bk.Log2)), cum))
	}
	label := braces(labels)
	out = append(out,
		fmt.Sprintf(`%s_bucket%sle="+Inf"} %d`, name, le, hs.Count),
		fmt.Sprintf(`%s_sum%s %d`, name, label, hs.Sum),
		fmt.Sprintf(`%s_count%s %d`, name, label, hs.Count))
	return out
}

// braces wraps a non-empty label set in {}.
func braces(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func bucketUpper(log2 int) float64 {
	if log2 <= 0 {
		return 0
	}
	return math.Pow(2, float64(log2)) - 1
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sanitizeMetricName maps registry names ("core.pending_shells") onto the
// OpenMetrics charset [a-zA-Z0-9_:], replacing everything else with '_'.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

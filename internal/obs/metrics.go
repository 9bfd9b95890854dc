package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a named collection of gauges and histograms plus a
// read-through to counters kept elsewhere. Metric lookup takes a lock and
// is meant for setup paths; the returned handles are lock-free atomics for
// the hot path. The zero value is ready to use.
type Registry struct {
	mu      sync.Mutex
	sources []func(emit func(name string, v int64))
	gauges  map[string]*Gauge
	hists   map[string]*Histogram
}

// ReadCounters registers src as a source of monotonic counters: every
// Snapshot calls it and reports what it emits, summing a name emitted more
// than once (two sources, e.g. two runs recorded into one session). The
// registry stores no count itself, so a snapshot is as fresh as the
// atomics src reads; src runs on the snapshotting goroutine, concurrently
// with whoever increments.
func (r *Registry) ReadCounters(src func(emit func(name string, v int64))) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources = append(r.sources, src)
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = map[string]*Gauge{}
	}
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named log₂-bucketed histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = map[string]*Histogram{}
	}
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() RegistrySnapshot {
	s := RegistrySnapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]GaugeValue{},
		Hists:    map[string]HistSnapshot{},
	}
	r.mu.Lock()
	sources := r.sources
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeValue{Value: g.Load(), Max: g.Max()}
	}
	for name, h := range r.hists {
		s.Hists[name] = h.Snapshot()
	}
	r.mu.Unlock()
	// The sources are the caller's code: run them outside the lock.
	for _, src := range sources {
		src(func(name string, v int64) { s.Counters[name] += v })
	}
	return s
}

// Gauge is an instantaneous level with a high-water mark (queue depths,
// backlogs, in-flight messages).
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Add moves the gauge by delta and updates the high-water mark.
func (g *Gauge) Add(delta int64) {
	n := g.v.Add(delta)
	for {
		m := g.max.Load()
		if n <= m || g.max.CompareAndSwap(m, n) {
			return
		}
	}
}

// Set forces the gauge to v and updates the high-water mark.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Max returns the high-water mark.
func (g *Gauge) Max() int64 { return g.max.Load() }

// histBuckets is the bucket count: bucket i holds values v with
// bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i (bucket 0 holds v == 0).
const histBuckets = 64

// Histogram is a lock-free log₂-bucketed histogram of non-negative
// int64 observations (latencies in ns, sizes in bytes).
type Histogram struct {
	buckets [histBuckets + 1]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Snapshot captures the histogram's buckets and moments.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, HistBucket{Log2: i, Count: n})
		}
	}
	return s
}

// GaugeValue is a gauge snapshot.
type GaugeValue struct {
	Value int64
	Max   int64
}

// HistBucket is one populated histogram bucket: values v with
// bits.Len64(v) == Log2 (so 2^(Log2-1) <= v < 2^Log2; Log2 0 is v == 0).
type HistBucket struct {
	Log2  int
	Count int64
}

// HistSnapshot is an immutable histogram capture.
type HistSnapshot struct {
	Count   int64
	Sum     int64
	Buckets []HistBucket
}

// Mean returns the average observation.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1):
// the upper edge of the bucket containing it.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(q * float64(s.Count))
	if target < 1 {
		target = 1
	}
	var seen int64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen >= target {
			if b.Log2 == 0 {
				return 0
			}
			return 1 << uint(b.Log2)
		}
	}
	last := s.Buckets[len(s.Buckets)-1]
	return 1 << uint(last.Log2)
}

// String renders the histogram as count/mean/p50/p99 plus a sparkline of
// the populated log₂ buckets.
func (s HistSnapshot) String() string {
	if s.Count == 0 {
		return "empty"
	}
	var peak int64
	for _, b := range s.Buckets {
		if b.Count > peak {
			peak = b.Count
		}
	}
	marks := []rune("▁▂▃▄▅▆▇█")
	var bar strings.Builder
	lo, hi := s.Buckets[0].Log2, s.Buckets[len(s.Buckets)-1].Log2
	byLog := map[int]int64{}
	for _, b := range s.Buckets {
		byLog[b.Log2] = b.Count
	}
	for l := lo; l <= hi; l++ {
		n := byLog[l]
		if n == 0 {
			bar.WriteRune(' ')
			continue
		}
		idx := int(float64(n) / float64(peak) * float64(len(marks)-1))
		bar.WriteRune(marks[idx])
	}
	return fmt.Sprintf("n=%d mean=%s p50≤%s p99≤%s [2^%d..2^%d) %s",
		s.Count, formatSI(int64(s.Mean())), formatSI(s.Quantile(0.5)),
		formatSI(s.Quantile(0.99)), lo-1, hi, bar.String())
}

// RegistrySnapshot is an immutable capture of a Registry.
type RegistrySnapshot struct {
	Counters map[string]int64
	Gauges   map[string]GaugeValue
	Hists    map[string]HistSnapshot
}

// Merge folds o into a copy of s: counters add, gauges take the larger
// high-water mark (and sum current levels), histograms merge buckets.
func (s RegistrySnapshot) Merge(o RegistrySnapshot) RegistrySnapshot {
	out := RegistrySnapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]GaugeValue{},
		Hists:    map[string]HistSnapshot{},
	}
	for k, v := range s.Counters {
		out.Counters[k] = v
	}
	for k, v := range o.Counters {
		out.Counters[k] += v
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = v
	}
	for k, v := range o.Gauges {
		cur := out.Gauges[k]
		cur.Value += v.Value
		if v.Max > cur.Max {
			cur.Max = v.Max
		}
		out.Gauges[k] = cur
	}
	for k, v := range s.Hists {
		out.Hists[k] = v
	}
	for k, v := range o.Hists {
		out.Hists[k] = mergeHists(out.Hists[k], v)
	}
	return out
}

func mergeHists(a, b HistSnapshot) HistSnapshot {
	byLog := map[int]int64{}
	for _, x := range a.Buckets {
		byLog[x.Log2] += x.Count
	}
	for _, x := range b.Buckets {
		byLog[x.Log2] += x.Count
	}
	logs := make([]int, 0, len(byLog))
	for l := range byLog {
		logs = append(logs, l)
	}
	sort.Ints(logs)
	out := HistSnapshot{Count: a.Count + b.Count, Sum: a.Sum + b.Sum}
	for _, l := range logs {
		out.Buckets = append(out.Buckets, HistBucket{Log2: l, Count: byLog[l]})
	}
	return out
}

// formatSI renders n with an SI suffix (1.5k, 2.3M, ...).
func formatSI(n int64) string {
	f := float64(n)
	switch {
	case f >= 1e9:
		return fmt.Sprintf("%.1fG", f/1e9)
	case f >= 1e6:
		return fmt.Sprintf("%.1fM", f/1e6)
	case f >= 1e3:
		return fmt.Sprintf("%.1fk", f/1e3)
	}
	return fmt.Sprintf("%d", n)
}

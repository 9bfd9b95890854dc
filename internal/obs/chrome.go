package obs

import (
	"encoding/json"
	"fmt"
	"strings"
)

// ChromeSpan is one complete ("ph":"X") trace event in the Chrome
// trace-event format: a named interval on process pid, thread tid,
// starting at TS microseconds for Dur microseconds.
type ChromeSpan struct {
	Name    string
	Pid     int
	Tid     int
	TS, Dur float64 // microseconds
}

// ChromeInstant is one instant ("ph":"i") trace event.
type ChromeInstant struct {
	Name string
	Pid  int
	Tid  int
	TS   float64 // microseconds
}

// ChromeFlow is one cross-rank causal arrow, rendered as a paired
// flow-start ("ph":"s") / flow-finish ("ph":"f") record sharing one id.
type ChromeFlow struct {
	Name   string
	ID     uint64
	SrcPid int
	SrcTid int
	SrcTS  float64 // microseconds
	DstPid int
	DstTid int
	DstTS  float64 // microseconds
}

// ChromeJSON renders spans and instants in the Chrome trace-event JSON
// array format understood by chrome://tracing and Perfetto. Every backend
// exports through this single writer, so sim-timeline traces and
// real-backend traces share one schema. Names are JSON-escaped; negative
// timestamps and durations are clamped to zero.
func ChromeJSON(spans []ChromeSpan, instants []ChromeInstant) string {
	return ChromeJSONFull(spans, instants, nil)
}

// ChromeJSONFull is ChromeJSON plus cross-rank flow arrows. Every flow
// emits exactly one "s" and one "f" record with the same id, and the
// finish timestamp never precedes the start.
func ChromeJSONFull(spans []ChromeSpan, instants []ChromeInstant, flows []ChromeFlow) string {
	var b strings.Builder
	b.WriteString("[")
	first := true
	sep := func() {
		if !first {
			b.WriteString(",\n")
		}
		first = false
	}
	for _, s := range spans {
		sep()
		fmt.Fprintf(&b, `{"name":%s,"ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d}`,
			jsonString(s.Name), clampNonNeg(s.TS), clampNonNeg(s.Dur), s.Pid, s.Tid)
	}
	for _, i := range instants {
		sep()
		fmt.Fprintf(&b, `{"name":%s,"ph":"i","s":"t","ts":%.3f,"pid":%d,"tid":%d}`,
			jsonString(i.Name), clampNonNeg(i.TS), i.Pid, i.Tid)
	}
	for _, f := range flows {
		name := f.Name
		if name == "" {
			name = "msg"
		}
		src := clampNonNeg(f.SrcTS)
		dst := clampNonNeg(f.DstTS)
		if dst < src {
			dst = src
		}
		sep()
		fmt.Fprintf(&b, `{"name":%s,"cat":"flow","ph":"s","id":%d,"ts":%.3f,"pid":%d,"tid":%d}`,
			jsonString(name), f.ID, src, f.SrcPid, f.SrcTid)
		sep()
		fmt.Fprintf(&b, `{"name":%s,"cat":"flow","ph":"f","bp":"e","id":%d,"ts":%.3f,"pid":%d,"tid":%d}`,
			jsonString(name), f.ID, dst, f.DstPid, f.DstTid)
	}
	b.WriteString("]")
	return b.String()
}

func clampNonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

func jsonString(s string) string {
	out, err := json.Marshal(s)
	if err != nil {
		return `"?"`
	}
	return string(out)
}

// ChromeJSONFromEvents converts an event stream (Session.Events) into a
// Chrome trace: one process row per rank, one thread lane per worker, exec
// spans from EvExecEnd records, instants for steals and fences, and
// cross-rank flow arrows from EvFlowEmit/EvFlowRecv pairs.
// A flow id appears in the output only when both its emit and its recv
// were recorded, so the trace never contains dangling flow starts or ends.
// Message events are omitted to keep traces loadable; the analyzer reports
// them in aggregate.
func ChromeJSONFromEvents(events []Event) string {
	var spans []ChromeSpan
	var instants []ChromeInstant
	emits := map[uint64]Event{}
	var recvs []Event
	for _, ev := range events {
		switch ev.Kind {
		case EvExecEnd:
			name := ev.Name
			if ev.Key != "" {
				name = ev.Name + ev.Key
			}
			spans = append(spans, ChromeSpan{
				Name: name,
				Pid:  int(ev.Rank),
				Tid:  int(ev.Worker),
				TS:   float64(ev.TS-ev.Dur) / 1e3,
				Dur:  float64(ev.Dur) / 1e3,
			})
		case EvSteal, EvFence:
			instants = append(instants, ChromeInstant{
				Name: ev.Kind.String(),
				Pid:  int(ev.Rank),
				Tid:  int(ev.Worker),
				TS:   float64(ev.TS) / 1e3,
			})
		case EvFlowEmit:
			if ev.Flow != 0 {
				emits[ev.Flow] = ev
			}
		case EvFlowRecv:
			if ev.Flow != 0 {
				recvs = append(recvs, ev)
			}
		}
	}
	var flows []ChromeFlow
	for _, rv := range recvs {
		em, ok := emits[rv.Flow]
		if !ok {
			continue
		}
		name := em.Name
		if name == "" {
			name = "msg"
		}
		flows = append(flows, ChromeFlow{
			Name:   name,
			ID:     rv.Flow,
			SrcPid: int(em.Rank),
			SrcTid: int(em.Worker),
			SrcTS:  float64(em.TS) / 1e3,
			DstPid: int(rv.Rank),
			DstTid: int(rv.Worker),
			DstTS:  float64(rv.TS) / 1e3,
		})
		delete(emits, rv.Flow)
	}
	return ChromeJSONFull(spans, instants, flows)
}

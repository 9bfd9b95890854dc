// Package obscli is the shared command-line surface of the observability
// layer: every demo binary (potrf, fwapsp, bspmm, mra) and the benchmark
// harness accepts the same -trace and -stats flags, creates an obs.Session
// only when asked, and renders the same trace file and stats report. Keeping
// the plumbing here means the apps stay one-flag-registration away from full
// observability and all binaries agree on the output formats.
package obscli

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/live"
)

// Flags holds the observability command-line options after Register.
type Flags struct {
	trace  *string        // Chrome-trace JSON output path ("" = no trace file)
	stats  *bool          // the post-run stats report on stdout
	cap    *int           // per-rank event-buffer length (0 = default)
	doctor *bool          // the live graph doctor (stall watchdog)
	quiet  *time.Duration // the doctor's stall quiet period
	doc    *live.Doctor
}

// Register installs -trace, -stats, -obs-cap, -doctor and -doctor-quiet on
// fs (the default command-line set when fs is nil). Call before flag.Parse.
func Register(fs *flag.FlagSet) *Flags {
	if fs == nil {
		fs = flag.CommandLine
	}
	f := &Flags{}
	f.trace = fs.String("trace", "", "write a Chrome-trace JSON (chrome://tracing, Perfetto) of the run to this path")
	f.stats = fs.Bool("stats", false, "print the observability report: per-template profiles, histograms, critical path")
	f.cap = fs.Int("obs-cap", 0, "per-rank event-buffer capacity (0 = default)")
	f.doctor = fs.Bool("doctor", false, "run the live graph doctor: watch the match tables for stalls and print a blame report to stderr")
	f.quiet = fs.Duration("doctor-quiet", 2*time.Second, "doctor: how long the graph must sit idle with pending tasks before a stall report fires")
	return f
}

// Doctor resolves the parsed doctor flags: when -doctor was given it
// builds and starts a stall watchdog over targets whose reports print to
// stderr, returning it (callers Stop it after the run); otherwise nil.
func (f *Flags) Doctor(targets []live.Target) *live.Doctor {
	if !*f.doctor {
		return nil
	}
	d := live.NewDoctor(live.Config{
		Quiet:   *f.quiet,
		OnStall: func(rep *live.StallReport) { fmt.Fprint(os.Stderr, rep.String()) },
	}, targets...)
	d.Start()
	return d
}

// Hook returns the pre-run hook for ttg.RunLive: it attaches the doctor
// to the runtime's rank targets when -doctor was given. Pair with
// FinishDoctor after the run.
func (f *Flags) Hook() func(targets []live.Target, collectors []live.Collector) {
	return func(targets []live.Target, _ []live.Collector) { f.doc = f.Doctor(targets) }
}

// FinishDoctor stops the watchdog started by Hook and re-probes the
// graph: a wedged TTG quiesces (pending shells hold no activation, so
// the fence returns), and this post-run diagnosis is what catches it.
// Returns an error when the graph stalled; no-op when -doctor was off.
func (f *Flags) FinishDoctor() error {
	if f.doc == nil {
		return nil
	}
	f.doc.Stop()
	if rep := f.doc.Diagnose(); rep != nil {
		fmt.Fprint(os.Stderr, rep.String())
		return fmt.Errorf("obscli: graph quiesced with %d pending task shell(s)", rep.Pending)
	}
	if n := f.doc.Reports(); n != 0 {
		return fmt.Errorf("obscli: %d stall report(s) fired during the run", n)
	}
	return nil
}

// Session resolves the parsed flags into an observation session, or nil when
// no observability output was requested (so instrumentation stays disabled).
func (f *Flags) Session() *obs.Session {
	if *f.trace == "" && !*f.stats {
		return nil
	}
	return obs.NewSession(obs.Config{Capacity: *f.cap})
}

// Finish renders the requested outputs from a completed run: the Chrome
// trace file (when -trace was given) and the stats report on stdout (when
// -stats was given). No-op when s is nil.
func (f *Flags) Finish(s *obs.Session) error {
	if s == nil {
		return nil
	}
	if *f.trace != "" {
		events := s.Events()
		if err := os.WriteFile(*f.trace, []byte(obs.ChromeJSONFromEvents(events)), 0o644); err != nil {
			return fmt.Errorf("obscli: writing trace: %w", err)
		}
		fmt.Printf("trace: wrote %d events to %s\n", len(events), *f.trace)
	}
	if *f.stats {
		fmt.Println(s.Report().String())
	}
	return nil
}

// Package madness configures the runtime engine after the paper's MADNESS
// backend (§II-D): an SPMD model with a thread pool per process and a
// dedicated thread serving remote active messages. Data always travels as
// whole serialized objects (no splitmd), and the runtime does not track
// data lifetimes, so const-ref sends still copy — the copy and
// communication overheads the paper observes for TTG-over-MADNESS in the
// MRA benchmark follow from exactly these two properties.
package madness

import (
	"repro/internal/backend"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/simnet"
)

// Config tunes the MADNESS-model runtime.
type Config struct {
	// WorkersPerRank sizes each rank's pool (default: NumCPU/ranks).
	WorkersPerRank int
	// GatherThreshold is the minimum wire size for the zero-copy gather
	// path (0 uses the serde default, negative disables gather sends for
	// this runtime).
	GatherThreshold int
	// Net configures fabric latency/bandwidth.
	Net simnet.Config
	// Fabric, when non-nil, replaces the in-process simnet cluster with an
	// external transport endpoint (one OS process per rank); see
	// backend.Options.Fabric.
	Fabric fabric.Endpoint
	// Obs, when non-nil, enables structured event recording and metrics.
	Obs *obs.Session
}

// New builds a MADNESS-model runtime over ranks virtual processes.
func New(ranks int, cfg Config) *backend.Runtime {
	return backend.New(ranks, backend.Options{
		Name:            "madness",
		WorkersPerRank:  cfg.WorkersPerRank,
		Policy:          sched.PolicyFIFO,
		TracksData:      false,
		SplitMD:         false,
		TreeBroadcast:   false,
		GatherThreshold: cfg.GatherThreshold,
		Net:             cfg.Net,
		Fabric:          cfg.Fabric,
		Obs:             cfg.Obs,
	})
}

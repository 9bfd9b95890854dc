// Package parsec configures the runtime engine after the paper's PaRSEC
// backend (§II-D): the runtime owns data flowing through the graph (so
// const-ref sends avoid copies), communication uses active messages for
// control, one-sided transfers via the split-metadata protocol for large
// payloads, completion callbacks for notifications, and optimized
// broadcasts forwarded along binomial trees. Scheduling is banded work
// stealing that honors priority maps; the exact-order priority queue and
// FIFO remain selectable, in the spirit of PaRSEC's modular component
// architecture.
package parsec

import (
	"repro/internal/backend"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/simnet"
)

// Config tunes the PaRSEC-model runtime.
type Config struct {
	// WorkersPerRank sizes each rank's pool (default: NumCPU/ranks).
	WorkersPerRank int
	// Policy overrides the scheduler module; default PolicyStealPrio
	// (banded work stealing that honors priority maps; PolicyPriority
	// remains the exact-order fallback).
	Policy sched.Policy
	// HasPolicy marks Policy as explicitly set (so PolicyFIFO is usable).
	HasPolicy bool
	// EagerThreshold is the splitmd switch-over size in bytes.
	EagerThreshold int
	// GatherThreshold is the minimum wire size for the zero-copy gather
	// path (0 uses the serde default, negative disables gather sends for
	// this runtime).
	GatherThreshold int
	// BcastChunk sets the pipelined-broadcast chunk size (0 default,
	// negative forces store-and-forward).
	BcastChunk int
	// Net configures fabric latency/bandwidth.
	Net simnet.Config
	// Fabric, when non-nil, replaces the in-process simnet cluster with an
	// external transport endpoint (one OS process per rank); see
	// backend.Options.Fabric.
	Fabric fabric.Endpoint
	// Obs, when non-nil, enables structured event recording and metrics.
	Obs *obs.Session
}

// New builds a PaRSEC-model runtime over ranks virtual processes.
func New(ranks int, cfg Config) *backend.Runtime {
	pol := sched.PolicyStealPrio
	if cfg.HasPolicy {
		pol = cfg.Policy
	}
	return backend.New(ranks, backend.Options{
		Name:            "parsec",
		WorkersPerRank:  cfg.WorkersPerRank,
		Policy:          pol,
		TracksData:      true,
		SplitMD:         true,
		TreeBroadcast:   true,
		EagerThreshold:  cfg.EagerThreshold,
		GatherThreshold: cfg.GatherThreshold,
		BcastChunk:      cfg.BcastChunk,
		Net:             cfg.Net,
		Fabric:          cfg.Fabric,
		Obs:             cfg.Obs,
	})
}

// Package cluster holds the calibrated machine models behind the
// virtual-time experiments — the substitution for the paper's two test
// systems (Table I and §III-A):
//
//   - Hawk (HLRS): dual-socket 64-core AMD EPYC 7742 nodes, Mellanox
//     InfiniBand HDR-200. The paper pins 60 worker threads per node.
//   - Seawulf (Stony Brook): dual-socket Intel Xeon Gold 6148 nodes
//     (40 cores), InfiniBand FDR.
//
// The absolute rates are engineering estimates (sustained dgemm per core,
// link bandwidth, small-message latency) — the reproduction targets the
// shape of the scaling curves, not the papers' absolute GF/s.
package cluster

import "repro/internal/core"

// Machine is a per-node hardware model used by the sim backend.
type Machine struct {
	// Name tags the machine in reports.
	Name string
	// Workers is the worker-thread count per node used in the paper runs.
	Workers int
	// KernelRate is the sustained flop/s per worker for BLAS3-like
	// kernels (GEMM, TRSM, SYRK, POTRF, min-plus tile updates).
	KernelRate float64
	// SmallOpRate is the sustained flop/s per worker for low-intensity
	// kernels (MRA transforms on small coefficient blocks).
	SmallOpRate float64
	// Latency is the small-message one-way network latency in seconds.
	Latency float64
	// Bandwidth is per-link network bandwidth in bytes/s.
	Bandwidth float64
	// CopyBandwidth is the per-thread memory copy bandwidth in bytes/s,
	// charged for serialization, deserialization, and data copies.
	CopyBandwidth float64
}

// Hawk models the HLRS system: EPYC 7742 nodes (sustained ~28 GF/s/core
// dgemm), HDR-200 (~23 GB/s effective, ~1.3 µs latency).
func Hawk() Machine {
	return Machine{
		Name:          "hawk",
		Workers:       60,
		KernelRate:    28e9,
		SmallOpRate:   6e9,
		Latency:       1.3e-6,
		Bandwidth:     23e9,
		CopyBandwidth: 8e9,
	}
}

// Seawulf models the Stony Brook system: Xeon Gold 6148 nodes (sustained
// ~35 GF/s/core dgemm with AVX-512), FDR InfiniBand (~6 GB/s, ~1.7 µs).
func Seawulf() Machine {
	return Machine{
		Name:          "seawulf",
		Workers:       36,
		KernelRate:    35e9,
		SmallOpRate:   7e9,
		Latency:       1.7e-6,
		Bandwidth:     6e9,
		CopyBandwidth: 9e9,
	}
}

// Flavor models a runtime system's overhead profile; the figure benches
// execute the same graphs under different flavors, reproducing the paper's
// backend comparisons.
type Flavor struct {
	// Name tags the flavor ("parsec", "madness", ...).
	Name string
	// TaskOverhead is the per-task scheduling cost in seconds.
	TaskOverhead float64
	// MsgOverhead is the per-active-message processing cost in seconds on
	// each side.
	MsgOverhead float64
	// SendCaps are the protocol properties core.PlanSend/PlanBcast decide
	// by; the engine presets (backend.PaRSEC, backend.MADNESS) read theirs
	// from the flavor of the same name.
	core.SendCaps
	// BandwidthEff derates the machine's link bandwidth for runtimes with
	// a less efficient communication substrate (0 means 1.0 = full).
	BandwidthEff float64
}

// LinkBandwidth returns the effective per-link bandwidth of flavor f on
// machine m.
func (f Flavor) LinkBandwidth(m Machine) float64 {
	bw := m.Bandwidth
	if f.BandwidthEff > 0 {
		bw *= f.BandwidthEff
	}
	return bw
}

// ParsecFlavor models the optimized PaRSEC backend of §II-D: low per-task
// overhead, active messages for control, one-sided data transfers, tree
// broadcasts, runtime-owned data.
func ParsecFlavor() Flavor {
	return Flavor{
		Name:         "parsec",
		TaskOverhead: 1.5e-6,
		MsgOverhead:  1.0e-6,
		SendCaps:     core.SendCaps{TracksData: true, SplitMD: true, TreeBroadcast: true},
	}
}

// MadnessFlavor models the MADNESS backend: whole-object serialization on
// every hop (no splitmd), no broadcast trees, per-hop data copies, and a
// busier active-message thread.
func MadnessFlavor() Flavor {
	return Flavor{Name: "madness", TaskOverhead: 3.0e-6, MsgOverhead: 4.0e-6}
}

// MPIRuntimeFlavor models a plain MPI+X communication layer (used by the
// baselines): efficient point-to-point, no task runtime services.
func MPIRuntimeFlavor() Flavor {
	return Flavor{
		Name:         "mpi",
		TaskOverhead: 0.5e-6,
		MsgOverhead:  1.0e-6,
		// MPI's rendezvous protocol plays splitmd's role; MPI_Bcast is a tree.
		SendCaps: core.SendCaps{TracksData: true, SplitMD: true, TreeBroadcast: true},
	}
}

// DPLASMAFlavor models DPLASMA's native parameterized-task-graph path on
// PaRSEC: the same runtime services as ParsecFlavor without the TTG
// layer's dispatch, hence slightly lower per-task cost (the paper's Fig. 5
// shows DPLASMA ≈ TTG/PaRSEC).
func DPLASMAFlavor() Flavor {
	f := ParsecFlavor()
	f.Name = "dplasma"
	f.TaskOverhead = 1.0e-6
	return f
}

// ChameleonFlavor models Chameleon over StarPU: a capable task runtime
// whose communication substrate lacks PaRSEC's optimized collectives —
// the paper's stated hypothesis for Chameleon trailing TTG and DPLASMA.
func ChameleonFlavor() Flavor {
	return Flavor{
		Name:         "chameleon",
		TaskOverhead: 2.0e-6,
		MsgOverhead:  1.5e-6,
		SendCaps:     core.SendCaps{TracksData: true, SplitMD: true}, // no tree: repeated point-to-point sends
		BandwidthEff: 0.8,
	}
}

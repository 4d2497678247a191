// Package cluster assembles simulated machines out of the gpu and fabric
// substrates. It provides the two evaluation systems of the paper's Table
// II — LLNL Lassen (POWER9 + V100 + NVLink2 + dual-rail IB EDR) and ABCI
// (Xeon + V100 + PCIe Gen3 + IB EDR) — plus the GPU generations used in the
// motivating Fig. 1.
//
// Parameter values are calibrated, not measured: they reproduce the
// relative magnitudes the paper reports (kernel launch ~5–10 µs, packing
// kernels ~1–5 µs, NVLink 75 GB/s vs PCIe 32 GB/s, IB EDR 25 GB/s,
// ~1 µs network latency).
package cluster

import (
	"errors"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/sim"
)

// --- GPU generations (Fig. 1) ---

// KeplerK80 models a Tesla K80: slow SMs, high launch overhead.
func KeplerK80() gpu.Arch {
	return gpu.Arch{
		Name:                   "Tesla-K80",
		LaunchOverheadNs:       9500,
		KernelStartupNs:        2600,
		SMCount:                13,
		MaxBlocksPerSM:         16,
		MemBWBytesPerNs:        240,
		BlockCopyBWBytesPerNs:  4,
		SegmentFixedNs:         520,
		EventRecordNs:          1500,
		EventQueryNs:           900,
		StreamSyncBaseNs:       1800,
		MemcpyAsyncOverheadNs:  5200,
		CopyEngineLatencyNs:    1900,
		CPUGPULinkBWBytesPerNs: 12, // PCIe Gen3 x16 shared
		GdrCopyLatencyNs:       600,
		GdrCopyBWBytesPerNs:    5,
		GdrSegmentFixedNs:      22,
	}
}

// PascalP100 models a Tesla P100 (PCIe).
func PascalP100() gpu.Arch {
	return gpu.Arch{
		Name:                   "Tesla-P100",
		LaunchOverheadNs:       7800,
		KernelStartupNs:        1700,
		SMCount:                56,
		MaxBlocksPerSM:         16,
		MemBWBytesPerNs:        720,
		BlockCopyBWBytesPerNs:  9,
		SegmentFixedNs:         260,
		EventRecordNs:          1100,
		EventQueryNs:           700,
		StreamSyncBaseNs:       1400,
		MemcpyAsyncOverheadNs:  4600,
		CopyEngineLatencyNs:    1500,
		CPUGPULinkBWBytesPerNs: 16,
		GdrCopyLatencyNs:       500,
		GdrCopyBWBytesPerNs:    6,
		GdrSegmentFixedNs:      16,
	}
}

// VoltaV100PCIe models a Tesla V100 behind PCIe Gen3 (the ABCI node).
func VoltaV100PCIe() gpu.Arch {
	a := voltaV100Common()
	a.Name = "Tesla-V100-PCIe"
	a.CPUGPULinkBWBytesPerNs = 32
	// PCIe round trips make driver interactions slightly costlier than
	// on POWER9+NVLink.
	a.LaunchOverheadNs = 7200
	a.MemcpyAsyncOverheadNs = 4600
	return a
}

// VoltaV100NVLink models a Tesla V100 on POWER9 NVLink2 (the Lassen node).
func VoltaV100NVLink() gpu.Arch {
	a := voltaV100Common()
	a.Name = "Tesla-V100-NVLink"
	a.CPUGPULinkBWBytesPerNs = 75
	a.LaunchOverheadNs = 6400
	a.MemcpyAsyncOverheadNs = 4100
	return a
}

func voltaV100Common() gpu.Arch {
	return gpu.Arch{
		KernelStartupNs:       1200,
		SMCount:               80,
		MaxBlocksPerSM:        16,
		MemBWBytesPerNs:       900,
		BlockCopyBWBytesPerNs: 12,
		SegmentFixedNs:        180,
		EventRecordNs:         900,
		EventQueryNs:          600,
		StreamSyncBaseNs:      1100,
		CopyEngineLatencyNs:   1300,
		GdrCopyLatencyNs:      400,
		GdrCopyBWBytesPerNs:   8,
		GdrSegmentFixedNs:     12,
	}
}

// FigureOneArchs returns the GPU generations swept in Fig. 1, oldest first.
func FigureOneArchs() []gpu.Arch {
	return []gpu.Arch{KeplerK80(), PascalP100(), VoltaV100PCIe(), VoltaV100NVLink()}
}

// --- systems (Table II) ---

// Spec describes a whole machine.
type Spec struct {
	Name        string
	Nodes       int
	GPUsPerNode int
	GPU         gpu.Arch
	// InterNode is the NIC-to-NIC link (IB EDR).
	InterNode fabric.LinkSpec
	// NICPostNs is the CPU cost of posting a work request.
	NICPostNs int64
	// GPUPeer is the intra-node GPU-GPU link (NVLink2), used by the
	// DirectIPC path.
	GPUPeerBWBytesPerNs float64
	GPUPeerLatencyNs    int64
	// HasGdrCopy reports whether the GDRCopy kernel module is loaded —
	// the CPU-GPU-Hybrid scheme needs it (paper Section V-B notes it
	// "may not be available in all HPC systems").
	HasGdrCopy bool
}

// Lassen is the LLNL Lassen system of Table II.
func Lassen() Spec {
	return Spec{
		Name:        "Lassen",
		Nodes:       2,
		GPUsPerNode: 4,
		GPU:         VoltaV100NVLink(),
		InterNode: fabric.LinkSpec{
			Name:         "IB-EDR-2rail",
			LatencyNs:    900,
			BWBytesPerNs: 25,
			PerMessageNs: 250,
		},
		NICPostNs:           200,
		GPUPeerBWBytesPerNs: 75,
		GPUPeerLatencyNs:    700,
		HasGdrCopy:          true,
	}
}

// ABCI is the AIST ABCI system of Table II.
func ABCI() Spec {
	return Spec{
		Name:        "ABCI",
		Nodes:       2,
		GPUsPerNode: 4,
		GPU:         VoltaV100PCIe(),
		InterNode: fabric.LinkSpec{
			Name:         "IB-EDR-2",
			LatencyNs:    1100,
			BWBytesPerNs: 25,
			PerMessageNs: 250,
		},
		NICPostNs:           260,
		GPUPeerBWBytesPerNs: 50,
		GPUPeerLatencyNs:    800,
		HasGdrCopy:          true,
	}
}

// WithNodes returns a copy of the spec scaled to n nodes.
func (s Spec) WithNodes(n int) Spec {
	s.Nodes = n
	return s
}

// Cluster is a built machine bound to a simulation environment.
type Cluster struct {
	Spec    Spec
	Env     *sim.Env
	Net     *fabric.Network
	Devices [][]*gpu.Device // [node][gpu]
}

// Validate reports an error for an unbuildable spec; configuration paths
// (dkf.NewSession) surface it instead of panicking.
func (s Spec) Validate() error {
	if s.Nodes <= 0 || s.GPUsPerNode <= 0 {
		return errors.New("cluster: need at least one node and one GPU")
	}
	if err := s.GPU.Check(); err != nil {
		return fmt.Errorf("cluster %s: %w", s.Name, err)
	}
	if err := s.InterNode.Validate(); err != nil {
		return fmt.Errorf("cluster %s: %w", s.Name, err)
	}
	if s.NICPostNs < 0 {
		return fmt.Errorf("cluster %s: negative NIC post cost", s.Name)
	}
	if s.GPUPeerBWBytesPerNs <= 0 {
		return fmt.Errorf("cluster %s: GPU peer bandwidth must be positive", s.Name)
	}
	if s.GPUPeerLatencyNs < 0 {
		return fmt.Errorf("cluster %s: negative GPU peer latency", s.Name)
	}
	return nil
}

// Build instantiates the machine on env, validating the spec first.
func Build(env *sim.Env, spec Spec) (*Cluster, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	net, err := fabric.NewNetwork(env, fabric.NetworkSpec{
		Nodes:      spec.Nodes,
		Link:       spec.InterNode,
		PostCostNs: spec.NICPostNs,
	})
	if err != nil {
		return nil, err
	}
	c := &Cluster{Spec: spec, Env: env, Net: net}
	id := 0
	for n := 0; n < spec.Nodes; n++ {
		var devs []*gpu.Device
		for g := 0; g < spec.GPUsPerNode; g++ {
			devs = append(devs, gpu.NewDevice(env, spec.GPU, id, n))
			id++
		}
		c.Devices = append(c.Devices, devs)
	}
	return c, nil
}

// MustBuild is Build for callers with known-good specs (benchmarks, tests);
// it panics on error.
func MustBuild(env *sim.Env, spec Spec) *Cluster {
	c, err := Build(env, spec)
	if err != nil {
		panic(err.Error())
	}
	return c
}

// Device returns GPU g of node n.
func (c *Cluster) Device(n, g int) *gpu.Device { return c.Devices[n][g] }

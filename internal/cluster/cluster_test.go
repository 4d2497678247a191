package cluster

import (
	"testing"

	"repro/internal/sim"
)

func TestFigureOneArchsOrderedByGeneration(t *testing.T) {
	archs := FigureOneArchs()
	if len(archs) != 4 {
		t.Fatalf("want 4 generations, got %d", len(archs))
	}
	// Memory bandwidth and SM count strictly improve over generations.
	for i := 1; i < len(archs); i++ {
		if archs[i].MemBWBytesPerNs < archs[i-1].MemBWBytesPerNs {
			t.Errorf("%s slower HBM than %s", archs[i].Name, archs[i-1].Name)
		}
		if archs[i].SMCount < archs[i-1].SMCount {
			t.Errorf("%s fewer SMs than %s", archs[i].Name, archs[i-1].Name)
		}
	}
	// Launch overhead stays within the same order of magnitude: the
	// paper's point is it does NOT improve the way compute does.
	first, last := archs[0].LaunchOverheadNs, archs[len(archs)-1].LaunchOverheadNs
	if first >= 2*last {
		t.Errorf("launch overhead improved too much: %d -> %d", first, last)
	}
}

func TestLassenVsABCILinks(t *testing.T) {
	l, a := Lassen(), ABCI()
	if l.GPU.CPUGPULinkBWBytesPerNs <= a.GPU.CPUGPULinkBWBytesPerNs {
		t.Fatal("Lassen NVLink must beat ABCI PCIe for CPU-GPU transfers")
	}
	if l.GPUPeerBWBytesPerNs <= a.GPUPeerBWBytesPerNs {
		t.Fatal("Lassen NVLink2 GPU-GPU (75) must beat ABCI (50)")
	}
	if l.InterNode.BWBytesPerNs != a.InterNode.BWBytesPerNs {
		t.Fatal("both systems use IB EDR at 25 GB/s")
	}
	for _, s := range []Spec{l, a} {
		if s.Nodes != 2 || s.GPUsPerNode != 4 {
			t.Fatalf("%s: Table II says 4 V100 per node, eval uses 2 nodes", s.Name)
		}
		if !s.HasGdrCopy {
			t.Fatalf("%s: hybrid baseline requires GDRCopy", s.Name)
		}
	}
}

func TestBuildWiresEverything(t *testing.T) {
	env := sim.NewEnv()
	c := MustBuild(env, Lassen())
	if totalGPUs(c) != 8 {
		t.Fatalf("total GPUs = %d, want 8", totalGPUs(c))
	}
	seen := map[int]bool{}
	for n, devs := range c.Devices {
		for _, d := range devs {
			if d.Node != n {
				t.Fatalf("device %d on node %d reports node %d", d.ID, n, d.Node)
			}
			if seen[d.ID] {
				t.Fatalf("duplicate device id %d", d.ID)
			}
			seen[d.ID] = true
		}
	}
	// Network must connect the two nodes both ways.
	c.Net.LinkBetween(0, 1)
	c.Net.LinkBetween(1, 0)
}

func TestWithNodes(t *testing.T) {
	s := Lassen().WithNodes(4)
	if s.Nodes != 4 {
		t.Fatalf("WithNodes: %d", s.Nodes)
	}
	env := sim.NewEnv()
	c := MustBuild(env, s)
	if totalGPUs(c) != 16 {
		t.Fatalf("total GPUs = %d", totalGPUs(c))
	}
}

func TestBuildRejectsEmptySpec(t *testing.T) {
	if _, err := Build(sim.NewEnv(), Spec{}); err == nil {
		t.Fatal("expected error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected MustBuild panic")
		}
	}()
	MustBuild(sim.NewEnv(), Spec{})
}

func TestLaunchDominatesPackOnAllGenerations(t *testing.T) {
	// Fig. 1's claim, checked against the cost model for the two paper
	// workload shapes (sparse specfem-like, dense MILC-like).
	env := sim.NewEnv()
	for _, arch := range FigureOneArchs() {
		d := MustBuild(env, Spec{
			Name: "t", Nodes: 1, GPUsPerNode: 1, GPU: arch,
			InterNode:           Lassen().InterNode,
			GPUPeerBWBytesPerNs: 50,
		}).Device(0, 0)
		sparse := d.EstimateKernelNs(96<<10, 4000, 24)
		dense := d.EstimateKernelNs(512<<10, 128, 4<<10)
		if arch.Name != "Tesla-K80" { // oldest generation is compute-bound
			if sparse >= arch.LaunchOverheadNs {
				t.Errorf("%s: sparse pack %dns >= launch %dns", arch.Name, sparse, arch.LaunchOverheadNs)
			}
			if dense >= arch.LaunchOverheadNs {
				t.Errorf("%s: dense pack %dns >= launch %dns", arch.Name, dense, arch.LaunchOverheadNs)
			}
		}
	}
}

// totalGPUs counts the devices the cluster built.
func totalGPUs(c *Cluster) int {
	n := 0
	for _, devs := range c.Devices {
		n += len(devs)
	}
	return n
}

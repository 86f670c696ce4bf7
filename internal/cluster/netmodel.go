package cluster

import "time"

// NetworkModel converts measured message sizes into simulated transfer
// times for a synchronous parameter-aggregation round, substituting for the
// physical clusters in the paper's evaluation (Cluster-1: 10 nodes, 1 Gbps;
// Cluster-2: 300 nodes, 10 Gbps, congested).
//
// The model captures the driver-link bottleneck of the paper's topology:
// in each round the driver ingests one gradient message from every worker
// and fans one aggregate message back out, so round time grows with
// worker count while per-worker compute shrinks — exactly the tension that
// makes uncompressed Adam degrade at 50 workers (Figure 11) while
// compressed codecs keep scaling.
type NetworkModel struct {
	// BandwidthBytesPerSec is the driver's effective link bandwidth.
	BandwidthBytesPerSec float64
	// LatencySec is the fixed per-round synchronization latency.
	LatencySec float64
}

// The two named models are REPRODUCTION-SCALED: the synthetic datasets are
// roughly three orders of magnitude smaller than the paper's (Table 1), so
// the links are scaled down by the same factor to preserve the paper's
// communication-to-computation ratio. A 35 MB gradient on a 1 Gbps link and
// a 35 KB gradient on a 1 Mbps link occupy the same fraction of an epoch.

// LabCluster models the paper's Cluster-1 (10 nodes, dedicated 1 Gbps
// Ethernet) at reproduction scale.
func LabCluster() NetworkModel {
	return NetworkModel{
		BandwidthBytesPerSec: 4e6, // 1 Gbps scaled to the synthetic data size
		LatencySec:           200e-6,
	}
}

// ProductionCluster models the paper's Cluster-2 (300 nodes, 10 Gbps but
// shared with many applications and hence slower in practice — the paper
// observes SketchML running slower there than on Cluster-1) at reproduction
// scale.
func ProductionCluster() NetworkModel {
	return NetworkModel{
		// 10 Gbps scaled, then divided by 20 for the shared multi-tenant
		// fabric (the paper notes Cluster-2 "is more congested").
		BandwidthBytesPerSec: 40e6 / 20,
		LatencySec:           500e-6,
	}
}

// FastLAN models a network fast relative to the workload (no scaling), for
// experiments whose contrast is compute parallelism rather than bandwidth
// (the Appendix B.1 single-node comparison).
func FastLAN() NetworkModel {
	return NetworkModel{
		BandwidthBytesPerSec: 125e6,
		LatencySec:           100e-6,
	}
}

// RoundTime returns the simulated communication time of one synchronous
// round in which the driver receives upBytes in total from all workers and
// broadcasts downBytes to each of the `workers` workers.
func (m NetworkModel) RoundTime(upBytes, downBytes int64, workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	total := float64(upBytes) + float64(downBytes)*float64(workers)
	sec := m.LatencySec + total/m.BandwidthBytesPerSec
	return time.Duration(sec * float64(time.Second))
}

// EpochTime is the one place a simulated epoch is composed, from what a run
// measured: the parties' CPU, and the bytes the driver's links counted.
//
//	epoch = parallelCPU/workers + serialCPU + network
//	network = rounds × one RoundTime at upBytes/rounds and downBytes/rounds
//
// parallelCPU is the work the workers share (gradient computation and their
// own codec calls, summed over workers), serialCPU the driver's codec work,
// which nothing overlaps. upBytes is the epoch's worker→driver traffic summed
// over workers and downBytes the driver→worker broadcast traffic per worker;
// the per-round sizes are integer quotients, as the traffic meters report
// them. network is returned on its own because it is a function of bytes
// alone and so repeats exactly from run to run. An epoch of zero rounds moved
// nothing and costs its CPU terms only.
func (m NetworkModel) EpochTime(parallelCPU, serialCPU time.Duration, workers, rounds int, upBytes, downBytes int64) (epoch, network time.Duration) {
	if workers < 1 {
		workers = 1
	}
	if rounds > 0 {
		r := int64(rounds)
		network = m.RoundTime(upBytes/r, downBytes/r, workers) * time.Duration(r)
	}
	return parallelCPU/time.Duration(workers) + serialCPU + network, network
}

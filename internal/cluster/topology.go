// Aggregation topology selection for the gather half of a training round.
// The topology decides how worker gradients reach the driver: through the
// driver directly (star) or through a binary tree of merging workers.
// Broadcast, reports, and control frames always use the direct driver links
// regardless of topology.

package cluster

import "fmt"

// Topology names the gather-side aggregation shape of a run.
type Topology int

const (
	// TopologyStar is the baseline: every worker sends its full gradient
	// message to the driver, which decodes all W of them. O(W) driver
	// bandwidth and decode CPU.
	TopologyStar Topology = iota
	// TopologyTree arranges workers in a binary tree rooted at the driver.
	// Interior workers merge their children's encoded messages wire-to-wire
	// (codec.Merger) and forward one message, so the driver decodes only
	// its direct children's (already aggregated) messages.
	TopologyTree
)

// String implements fmt.Stringer with the names ParseTopology accepts.
func (t Topology) String() string {
	switch t {
	case TopologyStar:
		return "star"
	case TopologyTree:
		return "tree"
	}
	return fmt.Sprintf("Topology(%d)", int(t))
}

// ParseTopology maps a CLI/job-spec string to a Topology. The empty string
// is the star default so zero-valued configs keep today's behavior.
func ParseTopology(s string) (Topology, error) {
	switch s {
	case "", "star":
		return TopologyStar, nil
	case "tree":
		return TopologyTree, nil
	}
	return TopologyStar, fmt.Errorf("cluster: unknown topology %q (want star, tree)", s)
}

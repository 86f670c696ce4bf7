package cluster

import "sketchml/internal/obs"

// ConnMetrics is the pre-resolved instrument set a CountingConn mirrors its
// per-link tallies into, aggregating traffic across every link of a run.
// The zero value (all-nil instruments) records nothing: obs instruments are
// nil-safe, so the counting hot path pays only the atomic adds it already
// did plus one no-op method call per field.
type ConnMetrics struct {
	BytesSent    *obs.Counter
	BytesRecv    *obs.Counter
	MsgsSent     *obs.Counter
	MsgsRecv     *obs.Counter
	RecvTimeouts *obs.Counter
}

// NewConnMetrics resolves the cluster-wide traffic counters from reg. A nil
// registry yields the inert zero value, so callers can thread an optional
// registry straight through.
func NewConnMetrics(reg *obs.Registry) ConnMetrics {
	if reg == nil {
		return ConnMetrics{}
	}
	return ConnMetrics{
		BytesSent:    reg.Counter(obs.CounterClusterBytesSent),
		BytesRecv:    reg.Counter(obs.CounterClusterBytesRecv),
		MsgsSent:     reg.Counter("cluster.msgs_sent"),
		MsgsRecv:     reg.Counter("cluster.msgs_recv"),
		RecvTimeouts: reg.Counter("cluster.recv_timeouts"),
	}
}

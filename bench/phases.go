package main

import (
	"fmt"
	"math"
	"sort"
)

// percentileLadder is the set of percentiles a tail may be reported at, in
// tenths of a percent so that the sample count beyond each is exact.
var percentileLadder = []int{500, 750, 900, 950, 990, 999}

// tailPercentile returns the highest percentile of the ladder that still
// has at least ten of n samples beyond it, so a reported tail is never one
// or two outliers. With fewer than twenty samples that is the median.
func tailPercentile(n int) float64 {
	best := percentileLadder[0]
	for _, p := range percentileLadder {
		if n*(1000-p) >= 10*1000 {
			best = p
		}
	}
	return float64(best) / 10
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks; xs need not be sorted. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// roundPhases is one round's wall time split at four span boundaries, with
// the driver's once-an-epoch work (evaluation, checkpoint save) taken out of
// whichever phase it overlaps and counted on its own. All values are
// nanoseconds; the four phases and EpochWork add up to Wall exactly unless
// a boundary arrived out of order, in which case the negative part is
// clamped to zero and counted in Clamped.
type roundPhases struct {
	Start, End int64
	Wall       int64
	Worker     int64 // round start → last worker encode end
	Gather     int64 // → driver's broadcast encode start
	BcastEnc   int64 // the driver's broadcast encode
	Broadcast  int64 // → last replica optimizer step end
	EpochWork  int64 // the driver's Evaluate and checkpoint spans inside the round
	Clamped    int64

	GatherWait    int64 // Gather not covered by driver decodes or worker merges
	BroadcastWait int64 // Broadcast not covered by decodes or optimizer steps
}

type interval struct{ lo, hi int64 }

// coveredWithin returns how much of [lo, hi) the intervals cover, counting
// overlapping intervals once.
func coveredWithin(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.lo > end {
			end = iv.lo
		}
		if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// partitionRounds splits every round of a traced run into its four phases.
// A round starts where the previous one ended (the first at its earliest
// span), so the rounds tile the training loop without gaps. When an epoch
// ends the driver evaluates, and saves a checkpoint if asked to, while the
// workers already compute the next round; that time is the driver's, not
// the next round's gather, so it comes out of the phases it overlaps.
func partitionRounds(spans []span, rounds int) ([]roundPhases, error) {
	type marks struct {
		first                  int64
		workerEncEnd           int64
		drvEncStart, drvEncEnd int64
		stepEnd                int64
		seenDrvEnc, seenStep   bool
		gatherWork, bcastWork  []interval
	}
	ms := make([]marks, rounds)
	for i := range ms {
		ms[i].first = math.MaxInt64
	}
	var epochWork []interval
	for _, s := range spans {
		if s.Name == spanEvaluate || s.Name == spanCheckpoint {
			epochWork = append(epochWork, interval{s.Start, s.End})
			continue
		}
		if s.Round < 0 {
			continue
		}
		if s.Round >= rounds {
			return nil, fmt.Errorf("phases: span %s in round %d of %d", s.Name, s.Round, rounds)
		}
		m := &ms[s.Round]
		if s.Start < m.first {
			m.first = s.Start
		}
		switch {
		case s.Name == spanEncode && s.Party > 0:
			if s.End > m.workerEncEnd {
				m.workerEncEnd = s.End
			}
		case s.Name == spanEncode:
			m.drvEncStart, m.drvEncEnd, m.seenDrvEnc = s.Start, s.End, true
		case s.Name == spanStep:
			if s.End > m.stepEnd {
				m.stepEnd = s.End
			}
			m.seenStep = true
			m.bcastWork = append(m.bcastWork, interval{s.Start, s.End})
		case s.Name == spanMergeInto:
			m.gatherWork = append(m.gatherWork, interval{s.Start, s.End})
		case s.Name == spanDecodeInto:
			// A driver decode before its own encode belongs to the gather;
			// every other decode consumes the broadcast.
			m.gatherWork = append(m.gatherWork, interval{s.Start, s.End})
			m.bcastWork = append(m.bcastWork, interval{s.Start, s.End})
		}
	}
	out := make([]roundPhases, rounds)
	var prevEnd int64
	for r := range ms {
		m := &ms[r]
		if !m.seenDrvEnc || !m.seenStep || m.workerEncEnd == 0 {
			return nil, fmt.Errorf("phases: round %d lacks a worker encode, a driver encode or an optimizer step", r)
		}
		p := &out[r]
		p.Start = prevEnd
		if r == 0 {
			p.Start = m.first
		}
		p.End = m.stepEnd
		p.Wall = p.End - p.Start
		bounds := [5]int64{p.Start, m.workerEncEnd, m.drvEncStart, m.drvEncEnd, m.stepEnd}
		var parts [4]int64
		for i := range parts {
			lo, hi := bounds[i], bounds[i+1]
			if hi < lo {
				p.Clamped += lo - hi
				continue
			}
			epoch := coveredWithin(epochWork, lo, hi)
			parts[i] = hi - lo - epoch
			p.EpochWork += epoch
		}
		p.Worker, p.Gather, p.BcastEnc, p.Broadcast = parts[0], parts[1], parts[2], parts[3]
		// What is left of a phase once the calls that use it are taken out.
		wait := func(lo, hi int64, work []interval) int64 {
			if hi < lo {
				return 0
			}
			return hi - lo - coveredWithin(append(work, epochWork...), lo, hi)
		}
		p.GatherWait = wait(bounds[1], bounds[2], m.gatherWork)
		p.BroadcastWait = wait(bounds[3], bounds[4], m.bcastWork)
		prevEnd = p.End
	}
	return out, nil
}

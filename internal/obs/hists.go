package obs

import (
	"sort"
	"strconv"

	"abm/internal/obs/hist"
	"abm/internal/units"
)

// HistID identifies one histogram in the registry. Histograms have
// fixed IDs resolved to *hist.Histogram handles at
// component setup, so the hot path performs plain array increments —
// no map lookups, no atomics (each shard owns its Sink), and a nil
// handle when histograms are off.
type HistID uint8

// Histogram IDs. All are model-side: pure functions of the simulated
// model, merged shard-wise by element-wise bucket addition, and
// therefore shard-count-invariant.
const (
	// FCT slowdown per flow class, recorded in milli-slowdowns
	// (slowdown x1000) when a finished flow first becomes visible to a
	// snapshot tick.
	HistSlowdownWS HistID = iota
	HistSlowdownIncast
	HistSlowdownLong
	HistSlowdownOther
	// HistQueueDelay is per-packet queueing delay in picoseconds,
	// recorded at dequeue from the enqueue timestamp.
	HistQueueDelay
	// HistQueueOcc is per-queue occupancy in bytes, sampled across
	// every fabric queue at each snapshot tick.
	HistQueueOcc
	// HistAdmitHeadroom is the Eq. 9 threshold headroom in bytes
	// (threshold - queue length) at each admission decision; values
	// <= 0 (decisions at or past the threshold) land in bucket 0.
	HistAdmitHeadroom
	// HistHybridResidency is a flow's fluid-mode stint length in
	// picoseconds, recorded at promotion.
	HistHybridResidency
	// HistHybridPromoLead is the bytes a flow still has to send at
	// promotion — how early the guard band pulled it back to packet
	// mode.
	HistHybridPromoLead

	NumHists
)

var histNames = [NumHists]string{
	"fct_slowdown_websearch",
	"fct_slowdown_incast",
	"fct_slowdown_long",
	"fct_slowdown_other",
	"queue_delay_ps",
	"queue_occupancy_bytes",
	"admit_headroom_bytes",
	"hybrid_residency_ps",
	"hybrid_promotion_lead_bytes",
}

// histUnits names each histogram's recorded unit for the NDJSON
// snapshot stream ("milli" = value x1000, "ps" = picoseconds).
var histUnits = [NumHists]string{
	"milli", "milli", "milli", "milli",
	"ps", "bytes", "bytes", "ps", "bytes",
}

// Name returns the histogram's export name.
func (h HistID) Name() string { return histNames[h] }

// Unit returns the histogram's recorded unit.
func (h HistID) Unit() string { return histUnits[h] }

// Hist returns the handle for histogram id: nil on a nil sink or when
// the session did not enable histograms — the disabled instrument,
// since hist.Histogram methods are nil-receiver-safe.
func (s *Sink) Hist(id HistID) *hist.Histogram {
	if s == nil || s.hists == nil {
		return nil
	}
	return &s.hists[id]
}

// HistsEnabled reports whether the session records histograms.
func (s *Session) HistsEnabled() bool {
	return s != nil && s.sinks[0].hists != nil
}

// MergedHist sums histogram id across every shard sink — element-wise
// bucket addition commutes, so the result is shard-count-invariant.
func (s *Session) MergedHist(id HistID) hist.Snapshot {
	var m hist.Histogram
	if s != nil {
		for _, sk := range s.sinks {
			if sk.hists != nil {
				m.Add(&sk.hists[id])
			}
		}
	}
	return m.Snapshot()
}

// HistTotals returns every non-empty merged histogram keyed by export
// name — the form that embeds in runner records and telemetry bundles.
// Nil when histograms are off or nothing was recorded.
func (s *Session) HistTotals() map[string]hist.Snapshot {
	if !s.HistsEnabled() {
		return nil
	}
	var out map[string]hist.Snapshot
	for id := HistID(0); id < NumHists; id++ {
		snap := s.MergedHist(id)
		if snap.Count == 0 {
			continue
		}
		if out == nil {
			out = make(map[string]hist.Snapshot)
		}
		out[id.Name()] = snap
	}
	return out
}

// AppendHistJSON appends one histogram-snapshot NDJSON line (without
// the trailing newline): the "hist" record kind of the snapshot
// stream, with a fixed field order so the export is byte-stable.
func AppendHistJSON(b []byte, at units.Time, id HistID, s hist.Snapshot) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, int64(at), 10)
	b = append(b, `,"kind":"hist","name":"`...)
	b = append(b, id.Name()...)
	b = append(b, `","unit":"`...)
	b = append(b, id.Unit()...)
	b = append(b, `","count":`...)
	b = strconv.AppendInt(b, s.Count, 10)
	b = append(b, `,"sum":`...)
	b = strconv.AppendInt(b, s.Sum, 10)
	b = append(b, `,"buckets":[`...)
	for i, bk := range s.Buckets {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, bk[0], 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, bk[1], 10)
		b = append(b, ']')
	}
	b = append(b, "]}"...)
	return b
}

// SortedHistNames returns the keys of a hist-snapshot map in sorted
// order — the stable iteration order exporters use.
func SortedHistNames(m map[string]hist.Snapshot) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

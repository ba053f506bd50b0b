package obs

import (
	"sort"
	"strings"

	"abm/internal/obs/hist"
	"abm/internal/obs/prom"
	"abm/internal/units"
)

// histSeries is one exposed histogram series: the registry histogram
// behind it and its class label ("" for unlabeled single-series
// families).
type histSeries struct {
	id    HistID
	class string
}

// histFamily maps registry histograms onto one exposition family: the
// four slowdown classes share a family distinguished by a class label.
// scale divides recorded integer values into the exposed unit.
type histFamily struct {
	name, help string
	scale      float64
	series     []histSeries
}

var histFamilies = []histFamily{
	{"abm_fct_slowdown", "FCT slowdown (FCT / ideal FCT) of finished flows by class.", 1e3,
		[]histSeries{
			{HistSlowdownWS, "websearch"},
			{HistSlowdownIncast, "incast"},
			{HistSlowdownLong, "long"},
			{HistSlowdownOther, "other"},
		}},
	{"abm_queue_delay_seconds", "Per-packet queueing delay at dequeue.", 1e12,
		[]histSeries{{HistQueueDelay, ""}}},
	{"abm_queue_occupancy_bytes", "Per-queue occupancy sampled at snapshot ticks.", 1,
		[]histSeries{{HistQueueOcc, ""}}},
	{"abm_admit_headroom_bytes", "Threshold headroom (threshold - queue length) at admission.", 1,
		[]histSeries{{HistAdmitHeadroom, ""}}},
	{"abm_hybrid_residency_seconds", "Fluid-mode stint length at promotion (hybrid engine).", 1e12,
		[]histSeries{{HistHybridResidency, ""}}},
	{"abm_hybrid_promotion_lead_bytes", "Bytes remaining at promotion back to packet mode.", 1,
		[]histSeries{{HistHybridPromoLead, ""}}},
}

// WriteProm renders the session's model-side exposition: the merged
// histograms as abm_* histogram families and the model/ keys of totals
// (the run's counter view) as abm_model_* counters, led by an
// abm_sim_time_seconds gauge. Engine counters carry wall-clock
// measurements and are excluded, so the whole exposition — like the
// histograms themselves — is byte-identical at any shard count.
func (s *Session) WriteProm(w *prom.Writer, now units.Time, totals map[string]int64) {
	w.Family("abm_sim_time_seconds", "gauge", "Simulated time of this snapshot.")
	w.Sample("abm_sim_time_seconds", nil, float64(now)/1e12)
	if s == nil {
		return
	}
	if s.HistsEnabled() {
		merged := make([]hist.Snapshot, NumHists)
		for id := HistID(0); id < NumHists; id++ {
			merged[id] = s.MergedHist(id)
		}
		for _, fam := range histFamilies {
			w.Family(fam.name, "histogram", fam.help)
			for _, ser := range fam.series {
				var labels []prom.Label
				if ser.class != "" {
					labels = []prom.Label{{Name: "class", Value: ser.class}}
				}
				w.Histogram(fam.name, labels, merged[ser.id], fam.scale)
			}
		}
	}
	keys := make([]string, 0, len(totals))
	for k := range totals {
		if strings.HasPrefix(k, "model/") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		name := "abm_model_" + strings.TrimPrefix(k, "model/")
		w.Family(name, "counter", "")
		w.IntSample(name, nil, totals[k])
	}
}

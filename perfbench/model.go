package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"abm/internal/metrics"
	"abm/internal/scenario"
	"abm/internal/units"
)

// digest hashes a run's model output: every flow record (ID, class,
// priority, size, start, end, ideal FCT, finished) in ID order, plus the
// drop and event counts. Two runs of one input must agree exactly.
// Flow records carry no endpoints; the ideal FCT stands in for the path,
// since it is computed from the source-destination hop count.
func digest(col *metrics.Collector, drops int64, events uint64) uint64 {
	flows := append([]metrics.FlowRecord(nil), col.Flows...)
	sort.Slice(flows, func(i, j int) bool { return flows[i].ID < flows[j].ID })
	h := fnv.New64a()
	var b []byte
	for _, f := range flows {
		b = b[:0]
		b = binary.LittleEndian.AppendUint64(b, f.ID)
		b = append(b, byte(f.Class), f.Prio)
		b = binary.LittleEndian.AppendUint64(b, uint64(f.Size))
		b = binary.LittleEndian.AppendUint64(b, uint64(f.Start))
		b = binary.LittleEndian.AppendUint64(b, uint64(f.End))
		b = binary.LittleEndian.AppendUint64(b, uint64(f.Ideal))
		if f.Finished {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		h.Write(b)
	}
	b = binary.LittleEndian.AppendUint64(b[:0], uint64(drops))
	b = binary.LittleEndian.AppendUint64(b, events)
	h.Write(b)
	return h.Sum64()
}

// counts sums telemetry counters by export name.
type counts map[string]int64

func (c counts) add(m map[string]int64) {
	for k, v := range m {
		c[k] += v
	}
}

// drops sums every switch drop cause (drops_unscheduled is a tag on
// these, not a cause of its own).
func (c counts) drops() int64 {
	return c["model/drops_threshold"] + c["model/drops_nobuffer"] + c["model/drops_aqm"] +
		c["model/drops_afd"] + c["model/drops_dequeue"]
}

// conservation checks one run's packet accounting: every packet a host
// NIC sent was consumed by a receiver, retired at a sender, or dropped
// at a switch. Drop counters do not record the packet type, and ACKs
// are dropped too (tofino-4q's shallow buffers drop a few), so the
// check requires each type's losses to be non-negative and the two to
// sum to the drops.
func conservation(c counts) error {
	data, consumed := c["model/data_pkts_sent"], c["model/data_pkts_consumed"]
	acks, retired := c["model/ack_pkts_sent"], c["model/ack_pkts_retired"]
	if data == 0 && acks == 0 {
		return fmt.Errorf("conservation: no packet counters recorded")
	}
	dataLost, acksLost, drops := data-consumed, acks-retired, c.drops()
	if dataLost < 0 || acksLost < 0 || dataLost+acksLost != drops {
		return fmt.Errorf("conservation: data sent %d, consumed %d; ACKs sent %d, retired %d; dropped %d",
			data, consumed, acks, retired, drops)
	}
	return nil
}

// linkEvents counts the link state changes a resolved scenario schedules.
func linkEvents(s scenario.Scenario) int {
	n := 0
	for _, f := range s.Fabric.LinkFaults {
		switch {
		case f.Flaps > 0:
			n += 2 * f.Flaps
		case f.RecoverAt > 0:
			n += 2
		default:
			n++
		}
	}
	return n
}

// modelOut is the simulated outcome of one cycle of a workload's inputs,
// pooled from the first run of each.
type modelOut struct {
	runs          int
	incast, short []float64 // FCT slowdowns, the Fig. 6 populations
	flows         int
	flowBytes     int64
	linkEvents    int
	col           *metrics.Collector // the run with the most flows
	lineRate      units.Rate
}

func (m *modelOut) add(r runOut) {
	m.runs++
	m.incast = append(m.incast, r.col.Filter(metrics.ByClass(metrics.ClassIncast))...)
	m.short = append(m.short, r.col.Filter(func(f metrics.FlowRecord) bool {
		return f.Class == metrics.ClassWebSearch && f.Size <= metrics.ShortFlowCut
	})...)
	m.flows += len(r.col.Flows)
	for _, f := range r.col.Flows {
		m.flowBytes += int64(f.Size)
	}
	m.linkEvents += linkEvents(r.Scenario)
	if m.col == nil || len(r.col.Flows) > len(m.col.Flows) {
		m.col = r.col
		m.lineRate = units.Rate(r.Scenario.Fabric.LinkGbps * float64(units.GigabitPerSec))
	}
}

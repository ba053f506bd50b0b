package main

import (
	"fmt"
	"path/filepath"

	"abm/internal/bm"
	"abm/internal/metrics"
	"abm/internal/obs/hist"
	"abm/internal/packet"
	"abm/internal/scenario"
	"abm/internal/topo"
	"abm/internal/units"
)

// Replays time one layer's public per-packet entry point in isolation.
// Each runs a fixed number of calls in a few batches and reports the
// median batch's time per call.
const replayBatches = 5

// sinkInt and sinkBytes keep replayed results live.
var (
	sinkInt   int
	sinkBytes units.ByteCount
)

func perCall(tr *tracer, parent int, name string, calls int, batch func()) float64 {
	var per []float64
	for i := 0; i < replayBatches; i++ {
		sp := tr.begin(name, parent)
		batch()
		per = append(per, float64(sp.end())/float64(calls))
	}
	return median(per) // ns per call
}

// thresholdNs times bm.New(scheme).Threshold over a spread of admission
// contexts shaped like the medium fabric's switches.
func thresholdNs(tr *tracer, parent int, scheme string) (float64, error) {
	pol, err := bm.New(scheme, 20, 0)
	if err != nil {
		return 0, err
	}
	total := topo.BufferFor(9.6, 20, 10*units.GigabitPerSec)
	ctxs := make([]bm.Ctx, 1024)
	for i := range ctxs {
		occ := total * units.ByteCount(i%97) / 97
		ctxs[i] = bm.Ctx{
			Total: total, Occupied: occ, QueueLen: occ / units.ByteCount(1+i%7),
			Port: i % 20, Alpha: 0.5, AlphaUnscheduled: 64,
			NormDrain: 1 / float64(1+i%4), CongestedSamePrio: 1 + i%5,
			Unscheduled: i%11 == 0, FlowID: uint64(i), PacketSize: 1500,
		}
	}
	const calls = 1 << 18
	return perCall(tr, parent, "replay.bm.Threshold."+scheme, calls, func() {
		for i := 0; i < calls; i++ {
			sinkBytes += pol.Threshold(&ctxs[i&1023])
		}
	}), nil
}

// routeNs times Switch.RoutePort hop by hop along every host pair's path
// on the given fabrics.
func routeNs(tr *tracer, parent int, nets []*topo.Network) float64 {
	var ns float64
	calls := 0
	for _, n := range nets {
		hosts := n.NumHosts()
		walk := func() int {
			c := 0
			var pkt packet.Packet
			for src := 0; src < hosts; src++ {
				for dst := 0; dst < hosts; dst++ {
					if src == dst {
						continue
					}
					pkt.Src, pkt.Dst, pkt.FlowID = packet.NodeID(src), packet.NodeID(dst), uint64(src*hosts+dst)
					for cur := n.GroupOf(src); ; {
						port := n.SwitchAt(cur).RoutePort(&pkt)
						c++
						ref := n.G.Peer(cur, port)
						if ref.ToHost {
							break
						}
						cur = int(ref.Peer)
					}
				}
			}
			return c
		}
		c := walk()
		ns += perCall(tr, parent, "replay.Switch.RoutePort", c, func() { sinkInt += walk() }) * float64(c)
		calls += c
	}
	return ratio(ns, float64(calls))
}

// linkEventMs times Network.ApplyLinkEvent taking a link of the
// linkfail-incast fabric down and back up; it returns ms per event.
func linkEventMs(tr *tracer, parent int, root string) (float64, error) {
	s, err := scenario.Load(filepath.Join(root, "scenarios", "linkfail-incast.json"))
	if err != nil {
		return 0, err
	}
	_, _, n, _, err := scenario.BuildFabric(s)
	if err != nil {
		return 0, err
	}
	if len(s.Fabric.LinkFaults) == 0 {
		return 0, fmt.Errorf("linkfail-incast.json schedules no link fault")
	}
	link, err := n.G.LinkIndex(s.Fabric.LinkFaults[0].Link)
	if err != nil {
		return 0, err
	}
	const pairs = 50
	per := perCall(tr, parent, "replay.Network.ApplyLinkEvent", 2*pairs, func() {
		for i := 0; i < pairs; i++ {
			n.ApplyLinkEvent(topo.LinkEvent{Link: link, State: topo.LinkDown})
			n.ApplyLinkEvent(topo.LinkEvent{Link: link, State: topo.LinkUp})
		}
	})
	return per / 1e6, nil
}

// histRecordNs times hist.Histogram.Record over a spread of values.
func histRecordNs(tr *tracer, parent int) float64 {
	var h hist.Histogram
	vals := make([]int64, 1024)
	for i := range vals {
		vals[i] = int64(i*i*37) + int64(i)
	}
	const calls = 1 << 20
	ns := perCall(tr, parent, "replay.hist.Record", calls, func() {
		for i := 0; i < calls; i++ {
			h.Record(vals[i&1023])
		}
	})
	sinkInt += int(h.Count())
	return ns
}

// summarizeMs times Collector.Summarize on a collector a run returned.
func summarizeMs(tr *tracer, parent int, col *metrics.Collector, rate units.Rate) float64 {
	if col == nil {
		return 0
	}
	return perCall(tr, parent, "replay.Collector.Summarize", 1, func() {
		sinkInt += col.Summarize(rate).Flows
	}) / 1e6
}

package scenario

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"abm/internal/hybrid"
	"abm/internal/obs"
	"abm/internal/packet"
	"abm/internal/sim"
	"abm/internal/topo"
	"abm/internal/transport"
)

// counterTotals is the run's counter view: every model/ and engine/
// total by export name, zero values omitted, read from the counters the
// fabric, transports, hybrid controller (nil when off) and engine keep
// themselves. Each key is computed here and nowhere else. model/ keys
// are functions of the simulated model alone, hence shard-count-
// invariant; engine/ keys describe the parallel run itself. Call it
// only while every shard is quiescent (at a barrier or after the run).
func counterTotals(n *topo.Network, p *sim.Parallel, ctl *hybrid.Controller, sess *obs.Session) map[string]int64 {
	c := make(map[string]int64)
	add := func(key string, v int64) {
		if v != 0 {
			c[key] += v
		}
	}
	for _, sw := range n.Switches() {
		m := sw.MMU()
		add("model/admitted_pkts", m.AdmittedPkts)
		add("model/admitted_bytes", int64(m.AdmittedBytes))
		add("model/ecn_marked", m.MarkedPkts)
		add("model/trimmed_pkts", m.TrimmedPkts)
		add("model/drops_noroute", sw.RouteDrops)
		for pi := 0; pi < sw.NumPorts(); pi++ {
			for qi := 0; qi < sw.Prios(); qi++ {
				q := sw.Port(pi).Queue(qi)
				add("model/drops_threshold", q.DropsThreshold)
				add("model/drops_nobuffer", q.DropsNoBuffer)
				add("model/drops_aqm", q.DropsAQM-q.DropsDequeue)
				add("model/drops_afd", q.DropsAFD)
				add("model/drops_dequeue", q.DropsDequeue)
				add("model/drops_unscheduled", q.DropsUnscheduled)
			}
		}
	}
	for _, h := range n.Hosts {
		add("model/ack_pkts_sent", h.AckPktsSent)
		add("model/data_pkts_consumed", h.DataPktsConsumed)
		add("model/ack_pkts_retired", h.AckPktsRetired)
		h.EachSender(func(sn *transport.Sender) {
			add("model/data_pkts_sent", sn.PktsSent)
			add("model/retrans_pkts_sent", sn.PktsRetrans)
			add("model/rto_fired", sn.Timeouts)
			add("model/fast_retrans", sn.FastRetrans)
		})
	}
	add("model/cwnd_cuts", c["model/rto_fired"]+c["model/fast_retrans"])
	if ctl != nil {
		st := ctl.Stats()
		add("model/hybrid_demotions", st.Demotions)
		add("model/hybrid_promotions", st.Promotions)
		add("model/hybrid_epochs", st.Epochs)
		add("model/hybrid_fluid_bytes", st.FluidBytes)
	}
	add("engine/windows", p.Windows)
	add("engine/barriers", p.Barriers)
	add("engine/barrier_wait_ns", p.BarrierWaitNs)
	add("engine/mailbox_batches", p.MailboxBatches)
	add("engine/mailbox_events", p.MailboxEvents)
	add("engine/trace_events_dropped", sess.EventsDropped())
	return c
}

// writeObsOutputs flushes a finished run's telemetry to the files its
// options request; totals is the run's counter view. A nil session
// (telemetry off) writes nothing. Called after the drain, when every
// shard is quiescent.
func writeObsOutputs(o obs.Options, sess *obs.Session, n *topo.Network, rec *histRecorder, totals map[string]int64) error {
	if sess == nil {
		return nil
	}
	if o.HistFile != "" && rec != nil {
		if err := writeTo(o.HistFile, func(f *os.File) error {
			_, err := f.Write(rec.series)
			return err
		}); err != nil {
			return err
		}
	}
	var events []obs.Event
	if o.EventsFile != "" || o.ChromeFile != "" {
		events = sess.MergedEvents()
	}
	if o.EventsFile != "" {
		if err := writeTo(o.EventsFile, func(f *os.File) error {
			return obs.WriteNDJSON(f, events)
		}); err != nil {
			return err
		}
	}
	if o.ChromeFile != "" {
		if err := writeTo(o.ChromeFile, func(f *os.File) error {
			return obs.WriteChrome(f, events, func(id int32) string {
				return n.NodeName(packet.NodeID(id))
			})
		}); err != nil {
			return err
		}
	}
	if o.CountersFile != "" {
		if err := writeTo(o.CountersFile, func(f *os.File) error {
			return writeCounters(f, totals, n)
		}); err != nil {
			return err
		}
	}
	return nil
}

// writeCounters renders the counter totals (sorted by name) followed by
// a blank line and the per-queue summary table.
func writeCounters(w io.Writer, totals map[string]int64, n *topo.Network) error {
	keys := make([]string, 0, len(totals))
	for k := range totals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s\t%d\n", k, totals[k]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return writeQueueCounters(w, n)
}

// writeQueueCounters dumps one TSV row per port-priority queue across
// the fabric (leaves first, in topo.Switches order): lifetime enqueue/
// dequeue totals, drops by cause (drops_aqm includes the dequeue-time
// subset), ECN marks, the occupancy high-water mark, the queue's last
// BM threshold, and the payload bytes the hybrid engine carried through
// the queue in fluid mode — so queues whose traffic was entirely fluid
// (zero packet counters) are still visibly active in the table.
func writeQueueCounters(w io.Writer, n *topo.Network) error {
	if _, err := fmt.Fprintln(w, "node\tport\tprio\tenq_pkts\tenq_bytes\tdeq_pkts\tdeq_bytes\t"+
		"drops_threshold\tdrops_nobuffer\tdrops_aqm\tdrops_afd\tdrops_unscheduled\t"+
		"marked_pkts\tmax_bytes\tlast_threshold\tfluid_bytes"); err != nil {
		return err
	}
	for _, sw := range n.Switches() {
		name := n.NodeName(sw.ID())
		for p := 0; p < sw.NumPorts(); p++ {
			for qi := 0; qi < sw.Prios(); qi++ {
				q := sw.Port(p).Queue(qi)
				if _, err := fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
					name, p, qi,
					q.EnqueuedPkts, int64(q.EnqueuedBytes), q.DequeuedPkts, int64(q.DequeuedBytes),
					q.DropsThreshold, q.DropsNoBuffer, q.DropsAQM, q.DropsAFD, q.DropsUnscheduled,
					q.MarkedPkts, int64(q.MaxBytes), int64(q.LastThreshold()), int64(q.FluidBytes)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// writeTo creates path (making parent directories, which per-job output
// under a fresh directory needs) and runs the writer against it.
func writeTo(path string, write func(*os.File) error) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Package obs is the simulator's telemetry layer: a structured event
// tracer and a streaming histogram registry, designed so that a
// disabled instrument costs nothing on the packet hot path. Counter
// totals are not kept here: every model/ and engine/ count is a field
// of the component that owns the fact (queues, MMUs, hosts, senders,
// the hybrid controller, the parallel engine), read into one view
// after the run by internal/scenario.
//
// # Zero cost when disabled
//
// Every instrumented component holds a *Sink (nil when telemetry is
// off) and *hist.Histogram handles resolved once at setup. The hot-path
// gates — Sink.Enabled, Histogram.Record — are nil-receiver-safe
// single-branch operations that inline, so the disabled configuration
// adds no allocation, no map lookup, no atomic, and no call through an
// interface to the packet lifecycle (pinned by TestSteadyStateZeroAlloc).
//
// # Determinism across shard counts
//
// The parallel engine gives every shard its own Sink, written only by
// that shard's goroutine; no synchronization is needed until export.
// Model events are merged by a stable sort on the identity key (At,
// Node, Port, Prio, Flow, Seq, Kind): two distinct model events can
// collide on the full key only if they concern the same queue or flow
// at the same picosecond, which places them in the same shard buffer
// in the engine's canonical execution order — so the merged stream,
// like the simulation output it narrates, is byte-identical at any
// shard count. Engine events (KindWindow, KindBarrier) carry wall-clock
// measurements and are excluded from that guarantee.
//
// The optional sampling ratio hashes each event's identity against a
// fixed threshold instead of counting per-sink, so the sampled subset
// is also shard-count-invariant.
package obs

import (
	"fmt"
	"strings"

	"abm/internal/obs/hist"
	"abm/internal/units"
)

// Kind classifies one traced event.
type Kind uint8

// Event kinds. The first block narrates the model (deterministic); the
// engine block narrates the parallel run itself (wall-clock-dependent).
const (
	// KindAdmit is one MMU admission decision with its full Eq. 9
	// context (B−Q(t), n_p, mu/b, alpha_p, threshold, verdict).
	KindAdmit Kind = iota
	// KindEnqueue is a successful enqueue (queue length after).
	KindEnqueue
	// KindDequeue is a dequeue at the port scheduler: transmitted, or
	// discarded by a sojourn-based AQM (Codel).
	KindDequeue
	// KindMark is an ECN mark applied at admission.
	KindMark
	// KindTimeout is a retransmission-timeout fire at a sender.
	KindTimeout
	// KindCwndCut is a fast-retransmit window reduction at a sender.
	KindCwndCut
	// KindHybridDemote is a flow leaving the packet engine for fluid
	// mode (hybrid engine).
	KindHybridDemote
	// KindHybridPromote is a flow reconstructed back into the packet
	// engine from its fluid trajectory.
	KindHybridPromote
	// KindWindow is one lookahead window executed by one shard.
	KindWindow
	// KindBarrier is one coordinator barrier (mailbox merge + wait).
	KindBarrier

	numKinds
)

var kindNames = [numKinds]string{
	"admit", "enqueue", "dequeue", "mark", "timeout", "cwndcut",
	"hybrid-demote", "hybrid-promote", "window", "barrier",
}

// String names the kind as it appears in the NDJSON "kind" field.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Kind masks.
const (
	// MaskModel enables the deterministic model kinds.
	MaskModel uint32 = 1<<KindAdmit | 1<<KindEnqueue | 1<<KindDequeue |
		1<<KindMark | 1<<KindTimeout | 1<<KindCwndCut |
		1<<KindHybridDemote | 1<<KindHybridPromote
	// MaskEngine enables the parallel-engine kinds.
	MaskEngine uint32 = 1<<KindWindow | 1<<KindBarrier
	// MaskAll enables everything.
	MaskAll = MaskModel | MaskEngine

	// maskSampled marks the high-volume queue-level kinds the sampling
	// ratio applies to; rare kinds (timeouts, window cuts) and engine
	// kinds are always kept.
	maskSampled uint32 = 1<<KindAdmit | 1<<KindEnqueue | 1<<KindDequeue | 1<<KindMark
)

// ParseMask resolves a -trace-filter value: a comma-separated list of
// kind names and the aliases "model", "engine" and "all". Empty selects
// everything.
func ParseMask(s string) (uint32, error) {
	if strings.TrimSpace(s) == "" {
		return MaskAll, nil
	}
	var mask uint32
	for _, f := range strings.Split(s, ",") {
		switch f = strings.TrimSpace(f); f {
		case "":
		case "all":
			mask |= MaskAll
		case "model":
			mask |= MaskModel
		case "engine":
			mask |= MaskEngine
		default:
			found := false
			for k, name := range kindNames {
				if f == name {
					mask |= 1 << uint(k)
					found = true
					break
				}
			}
			if !found {
				return 0, fmt.Errorf("obs: unknown event kind %q (have %s, plus model/engine/all)",
					f, strings.Join(kindNames[:], ", "))
			}
		}
	}
	return mask, nil
}

// Admission verdicts. The first six mirror device.AdmitResult value for
// value (pinned by a cross-package test); the last two are dequeue
// outcomes.
const (
	VerdictAdmit uint8 = iota
	VerdictAdmitMark
	VerdictDropThreshold
	VerdictDropNoBuffer
	VerdictDropAQM
	VerdictDropAFD
	VerdictTx          // dequeue: handed to the transmitter
	VerdictDropDequeue // dequeue: discarded by a sojourn AQM

	numVerdicts
)

var verdictNames = [numVerdicts]string{
	"admit", "admit-mark", "drop-threshold", "drop-nobuffer", "drop-aqm",
	"drop-afd", "tx", "drop-dequeue",
}

// VerdictName names a verdict as it appears in NDJSON.
func VerdictName(v uint8) string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return fmt.Sprintf("verdict(%d)", v)
}

// VerdictDropped reports whether the verdict discards the packet.
func VerdictDropped(v uint8) bool {
	return v >= VerdictDropThreshold && v != VerdictTx
}

// Event is one traced occurrence. It is a single flat struct for every
// kind so the per-shard buffers are plain slices (no boxing, no
// per-event allocation); unused fields are zero. Field meaning by kind:
//
//	admit    Node/Port/Prio/Flow/Seq/Size the packet and queue; QLen the
//	         queue length before the decision, Free = B − Q(t) the
//	         remaining shared buffer, Thresh the computed Eq. 9
//	         threshold (for AFD pre-drops: the queue's last one), Alpha
//	         alpha_p, MuB the normalized drain rate mu/b, NCong n_p,
//	         Unsched the first-RTT tag, Verdict the outcome.
//	enqueue  QLen after the push.
//	dequeue  QLen after the pop, Aux the sojourn time in ps, Verdict
//	         VerdictTx or VerdictDropDequeue.
//	mark     QLen before the push of the marked packet.
//	timeout  Node the sender host, Aux the current RTO in ps, QLen the
//	         post-backoff congestion window in bytes.
//	cwndcut  Node the sender host, QLen the post-cut window in bytes.
//	hybrid-demote   Node the sender host, Flow the flow, Seq the next
//	         unsent byte at demotion, QLen the congestion window in
//	         bytes, Aux the fluid rate in bytes/s.
//	hybrid-promote  Node the sender host, Flow the flow, Seq the
//	         reconstructed next byte, QLen the reconstructed window in
//	         bytes, Aux the bytes delivered while fluid.
//	window   Node the shard, At/Dur the window bounds in sim time, Aux
//	         the events executed, Wall the wall-clock ns spent.
//	barrier  At the frontier, Aux the shards dispatched, Wall the
//	         coordinator's wall-clock wait ns.
type Event struct {
	At      units.Time
	Dur     units.Time
	Flow    uint64
	Seq     int64
	QLen    units.ByteCount
	Free    units.ByteCount
	Thresh  units.ByteCount
	Alpha   float64
	MuB     float64
	Aux     int64
	Wall    int64
	Node    int32
	Size    int32
	NCong   int32
	Port    int16
	Prio    int16
	Kind    Kind
	Verdict uint8
	Unsched bool
}

// Sink collects events and histograms for one shard (or for the
// parallel coordinator). A Sink is single-writer: only the owning
// shard's goroutine appends to it; merging happens after the run on the
// coordinator. A nil *Sink is the disabled instrument.
type Sink struct {
	mask   uint32
	bar53  uint64 // sampling threshold in [0, 2^53]; 1<<53 keeps all
	max    int    // event-buffer cap (maxEvents outside tests)
	events []Event
	// dropped counts events discarded at the buffer cap; the counter
	// view exports the session total as engine/trace_events_dropped.
	dropped int64
	hists   *[NumHists]hist.Histogram // nil unless Options.Hists
}

// Enabled reports whether events of kind k are being recorded. It is
// the hot-path gate: callers construct an Event only when it returns
// true, so the disabled path costs one nil check and one mask test.
func (s *Sink) Enabled(k Kind) bool {
	return s != nil && s.mask&(1<<k) != 0
}

// Emit records ev. The caller must have checked Enabled(ev.Kind).
// High-volume kinds are thinned by the sampling ratio via a hash of the
// event identity — a pure function of model state, so the kept subset
// is identical at any shard count. When the per-shard buffer cap is
// reached further events are counted as dropped rather than grown
// without bound.
func (s *Sink) Emit(ev Event) {
	if s.bar53 < 1<<53 && maskSampled&(1<<ev.Kind) != 0 && sampleHash(&ev)>>11 >= s.bar53 {
		return
	}
	if len(s.events) >= s.max {
		s.dropped++
		return
	}
	s.events = append(s.events, ev)
}

// maxEvents caps each sink's event buffer. Overflow is counted as
// engine/trace_events_dropped instead of growing without bound.
const maxEvents = 1 << 20

// Events returns the sink's raw buffer (shard-local order).
func (s *Sink) Events() []Event {
	if s == nil {
		return nil
	}
	return s.events
}

// mix64 is the SplitMix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sampleHash hashes the event identity fields that survive any shard
// partition (never buffer positions or wall clocks).
func sampleHash(ev *Event) uint64 {
	h := mix64(uint64(ev.At))
	h = mix64(h ^ ev.Flow)
	h = mix64(h ^ uint64(ev.Seq))
	h = mix64(h ^ uint64(uint32(ev.Node))<<8 ^ uint64(ev.Kind))
	return h
}

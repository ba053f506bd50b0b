package abm

// Steady-state allocation discipline for the packet pipeline. The event
// engine (internal/eventq's arena heap) and the per-simulator packet
// free list exist so that, once a topology is warmed up, pushing a
// packet through sender → NIC → link → switch MMU → port transmitter →
// link → receiver → ACK → retire touches the heap zero times. These
// tests pin that property: BenchmarkPacketLifecycle reports the
// per-packet cost and allocs/op of the full round trip, and
// TestSteadyStateZeroAlloc fails the build if a per-packet allocation
// creeps back into the hot path.

import (
	"testing"

	"abm/internal/bm"
	"abm/internal/cc"
	"abm/internal/device"
	"abm/internal/host"
	"abm/internal/obs"
	"abm/internal/packet"
	"abm/internal/sim"
	"abm/internal/units"
)

// lifecycleFabric is the smallest closed loop exercising the full
// packet lifecycle: two hosts on a one-switch fabric with a single
// long-lived flow from a to b.
type lifecycleFabric struct {
	s  *sim.Simulator
	a  *host.Host
	b  *host.Host
	sw *device.Switch
}

func newLifecycleFabric(seed int64, sink *obs.Sink) *lifecycleFabric {
	s := sim.New(seed)
	// Hosts are faster than the switch ports so the switch is the
	// bottleneck: the DT threshold then bounds the congestion window
	// (and with it the in-flight packet population) via drops, which is
	// what makes the packet free list reach a steady high-water mark.
	mkHost := func(id packet.NodeID) *host.Host {
		return host.New(s, host.Config{
			ID: id, Rate: 40 * units.GigabitPerSec, BaseRTT: 8 * units.Microsecond,
			Obs: sink,
		})
	}
	a, b := mkHost(1), mkHost(2)
	sw := device.NewSwitch(s, device.SwitchConfig{
		ID: 10, NumPorts: 2, QueuesPerPort: 1, PortRate: 10 * units.GigabitPerSec,
		Obs: sink,
		MMU: device.MMUConfig{
			BufferSize:    150 * units.Kilobyte,
			Alphas:        []float64{0.5},
			BM:            bm.DT{},
			StatsInterval: 80 * units.Microsecond,
		},
	})
	sw.SetRouter(func(_ *device.Switch, pkt *packet.Packet) int { return int(pkt.Dst) - 1 })
	a.Connect(device.NewLink(s, units.Microsecond, sw))
	b.Connect(device.NewLink(s, units.Microsecond, sw))
	sw.ConnectPort(0, device.NewLink(s, units.Microsecond, a))
	sw.ConnectPort(1, device.NewLink(s, units.Microsecond, b))
	// One effectively-endless flow keeps the pipeline full for the whole
	// measurement; Reno reaches a stable cwnd well inside the warmup.
	a.StartFlow(1, 2, 1<<40, 0, cc.NewReno(), nil)
	return &lifecycleFabric{s: s, a: a, b: b, sw: sw}
}

// warm runs the fabric long enough for every amortized growth to
// settle: event arena, NIC and switch queue backing arrays, the packet
// free list, transport maps, and the cwnd ramp.
func (f *lifecycleFabric) warm() {
	f.s.RunUntil(20 * units.Millisecond)
}

// TestSteadyStateZeroAlloc asserts that advancing the warmed fabric —
// thousands of full packet round trips — allocates nothing, both with
// telemetry fully disabled (nil sink: the default configuration), with
// a counters-only session attached (no events recorded) and with the
// streaming histograms on. The components' own counters are plain
// int64 fields, bumped in every mode.
func TestSteadyStateZeroAlloc(t *testing.T) {
	cases := []struct {
		name string
		sink func(t *testing.T) *obs.Sink
	}{
		{"disabled", func(t *testing.T) *obs.Sink { return nil }},
		{"counters", func(t *testing.T) *obs.Sink {
			sess, err := obs.NewSession(obs.Options{Counters: true}, 1)
			if err != nil {
				t.Fatal(err)
			}
			return sess.ShardSink(0)
		}},
		{"histograms", func(t *testing.T) *obs.Sink {
			// Counters plus the streaming histograms: queue delay and
			// admission headroom record on every packet through fixed
			// arrays behind pre-resolved handles, so the hot path must
			// stay allocation-free here too.
			sess, err := obs.NewSession(obs.Options{Counters: true, Hists: true}, 1)
			if err != nil {
				t.Fatal(err)
			}
			return sess.ShardSink(0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := tc.sink(t)
			f := newLifecycleFabric(42, sink)
			f.warm()
			next := f.s.Now()
			window := units.Millisecond
			before := f.b.RxBytes
			allocs := testing.AllocsPerRun(10, func() {
				next += window
				f.s.RunUntil(next)
			})
			if f.b.RxBytes == before {
				t.Fatal("no traffic flowed during the measurement window")
			}
			if allocs != 0 {
				t.Fatalf("steady-state run allocated %.1f objects per %v window, want 0", allocs, window)
			}
			if f.a.Sender(1).PktsSent == 0 || f.b.AckPktsSent == 0 || f.b.DataPktsConsumed == 0 {
				t.Fatal("sender and host counters recorded no traffic")
			}
		})
	}
}

// BenchmarkPacketLifecycle reports the cost of one packet's full
// sender→switch→receiver→ACK round trip in steady state. Each
// iteration advances the virtual clock by one wire-serialization time,
// i.e. one packet's worth of pipeline work at line rate.
func BenchmarkPacketLifecycle(b *testing.B) {
	b.ReportAllocs()
	f := newLifecycleFabric(42, nil)
	f.warm()
	perPkt := (10 * units.GigabitPerSec).TxTime(1440 + packet.HeaderBytes)
	next := f.s.Now()
	startEv := f.s.Executed()
	startRx := f.b.RxBytes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next += perPkt
		f.s.RunUntil(next)
	}
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(f.s.Executed()-startEv)/elapsed, "events/s")
	}
	if n := b.N; n > 0 {
		b.ReportMetric(float64(f.b.RxBytes-startRx)/float64(n), "bytes/op")
	}
}

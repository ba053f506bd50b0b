package experiments

import (
	"fmt"
	"io"

	"abm/internal/analytic"
	"abm/internal/units"
)

// FigureIDs lists the figure identifiers, in paper order. "fig5sim" is
// the simulated (packet-level) cross-check of the analytic Figure 5.
var FigureIDs = []string{"fig4", "fig5", "fig5sim", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "ablation", "alphasweep", "extracc"}

// RunFigure dispatches a figure by id, writing a TSV table to w. Cells
// run in parallel on the runner pool with default options; the output
// is identical at any worker count.
func RunFigure(id string, scale Scale, seed int64, w io.Writer) error {
	return RunFigureOpts(nil, id, scale, seed, w)
}

// RunFigureOpts is RunFigure with explicit execution options: worker
// count, per-cell timeout and retries, an optional record store,
// and progress reporting.
func RunFigureOpts(o *RunOptions, id string, scale Scale, seed int64, w io.Writer) error {
	switch id {
	case "fig4":
		return Fig4(w)
	case "fig5":
		return Fig5(w)
	case "fig5sim":
		return fig5sim(o, w)
	case "fig6":
		return fig6(o, scale, seed, w)
	case "fig7":
		return fig7(o, scale, seed, w)
	case "fig8":
		return fig8(o, scale, seed, w)
	case "fig9":
		return fig9(o, scale, seed, w)
	case "fig10":
		return fig10(o, scale, seed, w)
	case "fig11":
		return fig11(o, scale, seed, w)
	case "fig12":
		return fig12(o, scale, seed, w)
	case "ablation":
		return runAblation(o, scale, seed, w)
	case "alphasweep":
		return runAlphaSweep(o, scale, seed, w)
	case "extracc":
		return runExtraCC(o, scale, seed, w)
	default:
		return fmt.Errorf("experiments: unknown figure %q (known: %v)", id, FigureIDs)
	}
}

// Fig4 regenerates Figure 4 (analytic): DT's unbounded allocation as
// congested queues multiply (top) and the priority inversion between a
// high-alpha and a low-alpha priority (bottom).
func Fig4(w io.Writer) error {
	fmt.Fprintln(w, "# Figure 4 (top): DT occupied buffer % vs congested queues (alpha=0.5)")
	fmt.Fprintln(w, "queues\toccupied_pct")
	b := units.ByteCount(5 * units.Megabyte)
	for n := 1; n <= 20; n++ {
		_, total := analytic.DTSteadyOccupancy(b, []analytic.PriorityLoad{{Alpha: 0.5, Congested: n}})
		fmt.Fprintf(w, "%d\t%.1f\n", n, 100*float64(total)/float64(b))
	}
	fmt.Fprintln(w, "# Figure 4 (bottom): priority inversion, alpha1=8 (loss-sensitive, 2 queues), alpha2=1 (best effort, growing)")
	fmt.Fprintln(w, "queues_prio1\tprio_loss_sensitive_pct\tprio_best_effort_pct")
	for n := 1; n <= 20; n++ {
		per, _ := analytic.DTSteadyOccupancy(b, []analytic.PriorityLoad{
			{Alpha: 8, Congested: 2},
			{Alpha: 1, Congested: n},
		})
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\n", n,
			100*float64(per[0])/float64(b), 100*float64(per[1])/float64(b))
	}
	return nil
}

// Fig5 regenerates Figure 5 (analytic): burst tolerance surfaces for DT
// (a: vs congested ports, b: vs congested queues) and ABM (c, d).
func Fig5(w io.Writer) error {
	base := analytic.BurstScenario{
		B:          5 * units.Megabyte,
		PortRate:   10 * units.GigabitPerSec,
		Alpha:      0.5,
		AlphaBurst: 64,
	}
	fmt.Fprintln(w, "# Figure 5a/5c: burst tolerance (MB) vs burst rate (x10Gbps) and congested ports")
	fmt.Fprintln(w, "rate_x10G\tports\tDT_MB\tABM_MB")
	for r := 10; r <= 20; r += 2 {
		for ports := 2; ports <= 14; ports += 2 {
			s := base
			s.BurstRate = units.Rate(r) * 10 * units.GigabitPerSec
			s.CongestedPorts = ports
			s.QueuesPerPort = 1
			fmt.Fprintf(w, "%d\t%d\t%.3f\t%.3f\n", r, ports,
				mb(s.DTBurstTolerance()), mb(s.ABMBurstTolerance()))
		}
	}
	fmt.Fprintln(w, "# Figure 5b/5d: burst tolerance (MB) vs burst rate (x10Gbps) and congested queues per port")
	fmt.Fprintln(w, "rate_x10G\tqueues\tDT_MB\tABM_MB")
	for r := 10; r <= 20; r += 2 {
		for queues := 2; queues <= 8; queues++ {
			s := base
			s.BurstRate = units.Rate(r) * 10 * units.GigabitPerSec
			s.CongestedPorts = 4
			s.QueuesPerPort = queues
			fmt.Fprintf(w, "%d\t%d\t%.3f\t%.3f\n", r, queues,
				mb(s.DTBurstTolerance()), mb(s.ABMBurstTolerance()))
		}
	}
	return nil
}

func mb(b units.ByteCount) float64 { return float64(b) / float64(units.Megabyte) }

// Fig6BMs are the buffer-management baselines of Figures 6-7.
var Fig6BMs = []string{"DT", "FAB", "CS", "IB", "ABM"}

// fig6Loads are Figure 6's web-search load points.
var fig6Loads = []float64{0.2, 0.4, 0.6, 0.8}

// Fig6 regenerates Figure 6: BM schemes under web-search load 20-80%
// plus incast at 30% of the buffer, all flows Cubic.
func Fig6(scale Scale, seed int64, w io.Writer) error { return fig6(nil, scale, seed, w) }

func fig6(o *RunOptions, scale Scale, seed int64, w io.Writer) error {
	var jobs []cellJob
	for _, bmName := range Fig6BMs {
		for _, load := range fig6Loads {
			jobs = append(jobs, cellJob{
				label: fmt.Sprintf("bm=%s,load=%g", bmName, load),
				cell: Cell{
					Scale: scale, Seed: seed,
					BM: bmName, Load: load, WSCC: "cubic",
					RequestFrac: 0.3,
				},
			})
		}
	}
	results, err := runCells(o, "fig6", jobs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Figure 6: BM under load (incast 30% of buffer, cubic)")
	fmt.Fprintln(w, "bm\tload\tp99_incast_slowdown\tp99_short_slowdown\tp99_buffer_pct\tavg_tput_pct\tflows\tunfinished")
	i := 0
	for _, bmName := range Fig6BMs {
		for _, load := range fig6Loads {
			s := results[i].Summary
			i++
			fmt.Fprintf(w, "%s\t%.0f\t%.1f\t%.1f\t%.1f\t%.1f\t%d\t%d\n",
				bmName, load*100, s.P99IncastSlowdown, s.P99ShortSlowdown,
				100*s.P99BufferFrac, 100*s.AvgThroughputFrac, s.Flows, s.Unfinished)
		}
	}
	return nil
}

// fig7Fracs are Figure 7's incast request sizes (fractions of the
// buffer).
var fig7Fracs = []float64{0.1, 0.25, 0.5, 0.75}

// Fig7 regenerates Figure 7: BM schemes across incast request sizes at
// 40% web-search load.
func Fig7(scale Scale, seed int64, w io.Writer) error { return fig7(nil, scale, seed, w) }

func fig7(o *RunOptions, scale Scale, seed int64, w io.Writer) error {
	var jobs []cellJob
	for _, bmName := range Fig6BMs {
		for _, frac := range fig7Fracs {
			jobs = append(jobs, cellJob{
				label: fmt.Sprintf("bm=%s,req=%g", bmName, frac),
				cell: Cell{
					Scale: scale, Seed: seed,
					BM: bmName, Load: 0.4, WSCC: "cubic",
					RequestFrac: frac,
				},
			})
		}
	}
	results, err := runCells(o, "fig7", jobs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Figure 7: BM under request sizes (load 40%, cubic)")
	fmt.Fprintln(w, "bm\treq_frac_pct\tp99_incast_slowdown\tp99_short_slowdown\tp99_buffer_pct\tavg_tput_pct\tflows\tunfinished")
	i := 0
	for _, bmName := range Fig6BMs {
		for _, frac := range fig7Fracs {
			s := results[i].Summary
			i++
			fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%d\t%d\n",
				bmName, frac*100, s.P99IncastSlowdown, s.P99ShortSlowdown,
				100*s.P99BufferFrac, 100*s.AvgThroughputFrac, s.Flows, s.Unfinished)
		}
	}
	return nil
}

// fig8Loads are Figure 8's Cubic load points.
var fig8Loads = []float64{0.2, 0.4, 0.6}

// Fig8 regenerates Figure 8: three priorities carrying Cubic, DCTCP and
// θ-PowerTCP; the Cubic load grows while the others stay fixed; DT vs
// ABM. Reports per-priority p99 short-flow slowdowns.
func Fig8(scale Scale, seed int64, w io.Writer) error { return fig8(nil, scale, seed, w) }

func fig8(o *RunOptions, scale Scale, seed int64, w io.Writer) error {
	var jobs []cellJob
	for _, bmName := range []string{"DT", "ABM"} {
		for _, load := range fig8Loads {
			jobs = append(jobs, cellJob{
				label: fmt.Sprintf("bm=%s,load=%g", bmName, load),
				cell: Cell{
					Scale: scale, Seed: seed,
					BM:            bmName,
					Load:          load + 0.2, // cubic at `load` + dctcp fixed at 0.2, interleaved
					QueuesPerPort: 3,
					MixedCC: []CCAssignment{
						{CC: "cubic", Prio: 0},
						{CC: "dctcp", Prio: 1},
					},
					RequestFrac: 0.25,
					IncastCC:    "theta-powertcp",
					IncastPrio:  2,
				},
			})
		}
	}
	results, err := runCells(o, "fig8", jobs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Figure 8: isolation across priorities (cubic prio0, dctcp prio1, theta-powertcp incast prio2)")
	fmt.Fprintln(w, "bm\tcubic_load\tp99_cubic\tp99_dctcp\tp99_theta\tp99_buffer_pct")
	i := 0
	for _, bmName := range []string{"DT", "ABM"} {
		for _, load := range fig8Loads {
			res := results[i]
			i++
			fmt.Fprintf(w, "%s\t%.0f\t%.1f\t%.1f\t%.1f\t%.1f\n",
				bmName, load*100,
				res.PerPrioP99Short[0], res.PerPrioP99Short[1], res.PerPrioP99Short[2],
				100*res.Summary.P99BufferFrac)
		}
	}
	return nil
}

// fig9CCs are Figure 9's congestion-control algorithms.
var fig9CCs = []string{"cubic", "dctcp", "timely", "powertcp"}

// Fig9 regenerates Figure 9: advanced congestion control with default
// buffer management (DT) vs with ABM, across incast request sizes.
func Fig9(scale Scale, seed int64, w io.Writer) error { return fig9(nil, scale, seed, w) }

func fig9(o *RunOptions, scale Scale, seed int64, w io.Writer) error {
	var jobs []cellJob
	for _, ccName := range fig9CCs {
		for _, frac := range fig7Fracs {
			for _, bmName := range []string{"DT", "ABM"} {
				jobs = append(jobs, cellJob{
					label: fmt.Sprintf("cc=%s,req=%g,bm=%s", ccName, frac, bmName),
					cell: Cell{
						Scale: scale, Seed: seed,
						BM: bmName, Load: 0.4, WSCC: ccName,
						RequestFrac: frac,
					},
				})
			}
		}
	}
	results, err := runCells(o, "fig9", jobs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Figure 9: advanced CC x request size, DT (default) vs ABM")
	fmt.Fprintln(w, "cc\treq_frac_pct\tp99_incast_DT\tp99_incast_ABM")
	i := 0
	for _, ccName := range fig9CCs {
		for _, frac := range fig7Fracs {
			dt := results[i].Summary.P99IncastSlowdown
			abm := results[i+1].Summary.P99IncastSlowdown
			i += 2
			fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\n", ccName, frac*100, dt, abm)
		}
	}
	return nil
}

// fig10QPPs are Figure 10's queues-per-port points.
var fig10QPPs = []int{2, 4, 6, 8}

// Fig10 regenerates Figure 10: the queues-per-port sweep under stable
// load, Cubic and DCTCP, DT vs ABM.
func Fig10(scale Scale, seed int64, w io.Writer) error { return fig10(nil, scale, seed, w) }

func fig10(o *RunOptions, scale Scale, seed int64, w io.Writer) error {
	var jobs []cellJob
	for _, ccName := range []string{"cubic", "dctcp"} {
		for _, bmName := range []string{"DT", "ABM"} {
			for _, qpp := range fig10QPPs {
				jobs = append(jobs, cellJob{
					label: fmt.Sprintf("cc=%s,bm=%s,qpp=%d", ccName, bmName, qpp),
					cell: Cell{
						Scale: scale, Seed: seed,
						BM: bmName, Load: 0.4, WSCC: ccName,
						RequestFrac:   0.25,
						QueuesPerPort: qpp,
						RandomPrio:    true,
					},
				})
			}
		}
	}
	results, err := runCells(o, "fig10", jobs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Figure 10: queues per port (load 40%, incast 25%)")
	fmt.Fprintln(w, "cc\tbm\tqueues_per_port\tp99_slowdown\tp99_buffer_pct")
	i := 0
	for _, ccName := range []string{"cubic", "dctcp"} {
		for _, bmName := range []string{"DT", "ABM"} {
			for _, qpp := range fig10QPPs {
				s := results[i].Summary
				i++
				fmt.Fprintf(w, "%s\t%s\t%d\t%.1f\t%.1f\n",
					ccName, bmName, qpp, s.P99ShortSlowdown, 100*s.P99BufferFrac)
			}
		}
	}
	return nil
}

// ShallowBuffers maps §4.3's device generations to KB/port/Gbps.
var ShallowBuffers = []struct {
	Name string
	KB   float64
}{
	{"Trident2", 9.6},
	{"8KB", 8},
	{"7KB", 7},
	{"6KB", 6},
	{"Tomahawk", 5.12},
	{"Tofino", 3.44},
}

// fig11BMs are Figure 11's schemes, in column order.
var fig11BMs = []string{"DT", "IB", "ABM"}

// Fig11 regenerates Figure 11: shallow buffers across device
// generations, DCTCP and PowerTCP, DT vs IB vs ABM.
func Fig11(scale Scale, seed int64, w io.Writer) error { return fig11(nil, scale, seed, w) }

func fig11(o *RunOptions, scale Scale, seed int64, w io.Writer) error {
	var jobs []cellJob
	for _, ccName := range []string{"dctcp", "powertcp"} {
		for _, dev := range ShallowBuffers {
			for _, bmName := range fig11BMs {
				jobs = append(jobs, cellJob{
					label: fmt.Sprintf("cc=%s,dev=%s,bm=%s", ccName, dev.Name, bmName),
					cell: Cell{
						Scale: scale, Seed: seed,
						BM: bmName, Load: 0.4, WSCC: ccName,
						// Request sized against the Trident2 buffer so the burst
						// is constant while the buffer shrinks (§4.3).
						RequestFrac:         0.25 * 9.6 / dev.KB,
						BufferKBPerPortGbps: dev.KB,
					},
				})
			}
		}
	}
	results, err := runCells(o, "fig11", jobs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Figure 11: shallow buffers (load 40%, incast 25% of Trident2 buffer)")
	fmt.Fprintln(w, "cc\tdevice\tkb_per_port_gbps\tp99_DT\tp99_IB\tp99_ABM")
	i := 0
	for _, ccName := range []string{"dctcp", "powertcp"} {
		for _, dev := range ShallowBuffers {
			var vals [3]float64
			for j := range fig11BMs {
				vals[j] = results[i].Summary.P99IncastSlowdown
				i++
			}
			fmt.Fprintf(w, "%s\t%s\t%.2f\t%.1f\t%.1f\t%.1f\n",
				ccName, dev.Name, dev.KB, vals[0], vals[1], vals[2])
		}
	}
	return nil
}

// fig12Intervals are Figure 12's update intervals in base RTTs.
var fig12Intervals = []int{1, 10, 100, 1000}

// Fig12 regenerates Figure 12: approximating ABM on DT with periodic
// alpha reconfiguration; the update interval sweeps 1x to 1000x RTT,
// with plain DT as the limit.
func Fig12(scale Scale, seed int64, w io.Writer) error { return fig12(nil, scale, seed, w) }

func fig12(o *RunOptions, scale Scale, seed int64, w io.Writer) error {
	baseRTT := 80 * units.Microsecond
	base := Cell{
		Scale: scale, Seed: seed,
		Load: 0.4, WSCC: "cubic",
		RequestFrac:   0.75,
		Fanout:        16, // responses sized within the first RTT (§3.3 traffic)
		QueuesPerPort: 8,
		RandomPrio:    true,
	}
	var jobs []cellJob
	for _, rtts := range fig12Intervals {
		cell := base
		cell.BM = "ABM-approx"
		cell.UpdateInterval = units.Time(rtts) * baseRTT
		jobs = append(jobs, cellJob{label: fmt.Sprintf("update=%drtt", rtts), cell: cell})
	}
	dtCell := base
	dtCell.BM = "DT"
	jobs = append(jobs, cellJob{label: "bm=DT", cell: dtCell})

	results, err := runCells(o, "fig12", jobs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Figure 12: ABM-approx update interval (load 40%, incast 75%, 8 queues/port)")
	fmt.Fprintln(w, "update_rtts\tp999_short_slowdown\tmedian_long_slowdown")
	for i, rtts := range fig12Intervals {
		s := results[i].Summary
		fmt.Fprintf(w, "%d\t%.1f\t%.2f\n", rtts,
			s.P999AllShortSlowdown, s.MedianLongSlowdown)
	}
	s := results[len(results)-1].Summary
	fmt.Fprintf(w, "DT\t%.1f\t%.2f\n", s.P999AllShortSlowdown, s.MedianLongSlowdown)
	return nil
}

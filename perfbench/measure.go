package main

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// opTimeout bounds one operation; a simulation cannot be preempted, so
// on expiry the operation is counted failed and measuring stops.
const opTimeout = 60 * time.Second

var errTimedOut = errors.New("operation timed out")

// guarded runs fn on its own goroutine, turning a panic into an error
// and giving up after opTimeout.
func guarded[T any](fn func() (T, error)) (T, error) {
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1) // buffered: an abandoned goroutine must not block forever
	go func() {
		defer func() {
			if r := recover(); r != nil {
				var zero T
				ch <- outcome{zero, fmt.Errorf("panic: %v\n%s", r, debug.Stack())}
			}
		}()
		v, err := fn()
		ch <- outcome{v, err}
	}()
	t := time.NewTimer(opTimeout)
	defer t.Stop()
	select {
	case o := <-ch:
		return o.v, o.err
	case <-t.C:
		var zero T
		return zero, errTimedOut
	}
}

// span is one timed call the benchmark made into the program, relative
// to the tracer's start. Parent 0 is the root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory for the traced run. A nil *tracer still
// times calls but records nothing, so untraced runs use the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// timer is an open span.
type timer struct {
	tr     *tracer
	id     int
	parent int
	name   string
	start  time.Time
}

// begin opens a span under parent (0 for the root).
func (tr *tracer) begin(name string, parent int) timer {
	t := timer{tr: tr, parent: parent, name: name}
	if tr != nil {
		tr.mu.Lock()
		tr.next++
		t.id = tr.next
		tr.mu.Unlock()
	}
	t.start = time.Now()
	return t
}

// end closes the span and returns its duration.
func (t timer) end() time.Duration {
	now := time.Now()
	d := now.Sub(t.start)
	if t.tr != nil {
		ms := func(x time.Time) float64 { return float64(x.Sub(t.tr.t0)) / 1e6 }
		t.tr.mu.Lock()
		t.tr.spans = append(t.tr.spans, span{ID: t.id, Parent: t.parent, Name: t.name, Start: ms(t.start), End: ms(now)})
		t.tr.mu.Unlock()
	}
	return d
}

// snapshot returns the recorded spans in start order.
func (tr *tracer) snapshot() []span {
	tr.mu.Lock()
	out := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// named returns the durations in ms of every span with the given name.
func named(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// spanTotal aggregates the spans of one name.
type spanTotal struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// spanTotals sums each span name's total and self time; self time is
// the span's duration minus the union of its children's intervals.
func spanTotals(spans []span) map[string]spanTotal {
	kids := make(map[int][][2]float64)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
	}
	out := make(map[string]spanTotal)
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, lo, hi := 0.0, math.Inf(-1), math.Inf(-1)
		for _, c := range iv {
			if c[0] > hi {
				if hi > lo {
					covered += hi - lo
				}
				lo, hi = c[0], c[1]
			} else if c[1] > hi {
				hi = c[1]
			}
		}
		if hi > lo {
			covered += hi - lo
		}
		t := out[s.Name]
		t.Count++
		t.TotalMs += s.dur()
		t.SelfMs += s.dur() - covered
		out[s.Name] = t
	}
	return out
}

// median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation sample quantile, q in [0, 1].
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mdacache/internal/isa"
)

// span is one timed call into a layer, recorded from outside the layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = no parent
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"` // spec key or job id
	Start  int64  `json:"start_ns"`      // since the recorder was created
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// recorder keeps spans in memory; a nil recorder records nothing, so the
// untraced passes run the same code with tracing off.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns the function that closes it together with
// the span's id, for use as the parent of nested spans.
func (r *recorder) begin(name, key string, parent int) (end func(), id int) {
	if r == nil {
		return func() {}, 0
	}
	start := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id = len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Key: key, Start: start})
	r.mu.Unlock()
	return func() {
		end := time.Since(r.t0).Nanoseconds()
		r.mu.Lock()
		r.spans[id-1].End = end
		r.mu.Unlock()
	}, id
}

// total sums the durations of every span with the given name.
func (r *recorder) total(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var s float64
	for _, sp := range r.spans {
		if sp.Name == name {
			s += sp.seconds()
		}
	}
	return s
}

// write stores the spans as JSON lines at path.
func (r *recorder) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	r.mu.Lock()
	for _, sp := range r.spans {
		_ = enc.Encode(sp) // a span always encodes; the buffer does not fail
	}
	r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// nextTimer accumulates the time the simulator spends inside Next of the
// traces it is given. Each run's traces share one timer; the simulation
// event loop is single-threaded, so no locking is needed.
type nextTimer struct {
	calls uint64
	ns    int64
}

// timedTrace wraps a trace and times every Next call. It forwards
// isa.Closer, so an abandoned trace still stops its generator goroutine.
type timedTrace struct {
	in isa.TraceReader
	t  *nextTimer
}

func (w *timedTrace) Next() (isa.Op, bool) {
	t0 := time.Now()
	op, ok := w.in.Next()
	w.t.ns += time.Since(t0).Nanoseconds()
	w.t.calls++
	return op, ok
}

func (w *timedTrace) Close() {
	if c, ok := w.in.(isa.Closer); ok {
		c.Close()
	}
}

// timedBlocker is a timedTrace over a trace that implements isa.Blocker.
// The CPU parks on a blocked trace only if it sees the Blocker interface,
// so the wrapper must expose it exactly when the wrapped trace does.
type timedBlocker struct {
	timedTrace
	b isa.Blocker
}

func (w *timedBlocker) Blocked() bool        { return w.b.Blocked() }
func (w *timedBlocker) OnReadable(fn func()) { w.b.OnReadable(fn) }

// wrapTraces returns timed wrappers of traces that share t, or the traces
// themselves when t is nil.
func wrapTraces(t *nextTimer, traces []isa.TraceReader) []isa.TraceReader {
	if t == nil {
		return traces
	}
	out := make([]isa.TraceReader, len(traces))
	for i, in := range traces {
		w := timedTrace{in: in, t: t}
		if b, ok := in.(isa.Blocker); ok {
			out[i] = &timedBlocker{timedTrace: w, b: b}
		} else {
			out[i] = &w
		}
	}
	return out
}

// spanPath names the file a traced pass writes its spans to.
func spanPath(workload string, seed uint64) string {
	return filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}

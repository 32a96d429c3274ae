package main

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/transport/wire"
)

// The traced run records spans from the benchmark's own code, around its
// calls into the program's public functions: client calls, and the
// server's HTTP handler (wrapped from outside). The program itself
// carries no new instrumentation.

type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
}

// recorder keeps every span in memory until the run ends. A nil recorder
// records nothing and costs one nil check per call.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// spanID is a span's 1-based index; 0 is no span.
type spanID uint32

func (r *recorder) begin(name string) spanID {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, start: now})
	id := spanID(len(r.spans))
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id spanID) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].end = now
	r.mu.Unlock()
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Count int
	Total time.Duration
}

func (s *layerStat) meanUS() float64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	return float64(s.Total) / float64(s.Count) / float64(time.Microsecond)
}

// aggregate folds the recorded spans per name.
func (r *recorder) aggregate() map[string]*layerStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*layerStat)
	for _, sp := range r.spans {
		st := out[sp.name]
		if st == nil {
			st = &layerStat{}
			out[sp.name] = st
		}
		st.Count++
		st.Total += sp.end - sp.start
	}
	return out
}

// total sums the Count and Total of the named layers.
func total(stats map[string]*layerStat, names ...string) (n int, d time.Duration) {
	for _, name := range names {
		if st := stats[name]; st != nil {
			n += st.Count
			d += st.Total
		}
	}
	return n, d
}

// writeTable prints the span aggregate, one layer per line.
func writeTable(w io.Writer, stats map[string]*layerStat) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-22s %9s %12s %12s\n", "span", "count", "total_ms", "mean_us")
	for _, n := range names {
		st := stats[n]
		fmt.Fprintf(w, "%-22s %9d %12.1f %12.2f\n", n, st.Count, ms(st.Total), st.meanUS())
	}
}

// handlerTap wraps the server's handler and records one span per request,
// named after its route.
type handlerTap struct {
	next http.Handler
	rec  *recorder
}

func (h handlerTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := h.rec.begin(routeName(r))
	h.next.ServeHTTP(w, r)
	h.rec.end(id)
}

// routeName classifies a request into the routes the layer table splits.
func routeName(r *http.Request) string {
	switch {
	case strings.HasSuffix(r.URL.Path, "/task"):
		return "http.task"
	case strings.HasSuffix(r.URL.Path, "/reports") && r.Header.Get("Content-Type") == wire.ReportBatchContentType:
		return "http.batch"
	case strings.HasSuffix(r.URL.Path, "/reports"):
		return "http.report"
	}
	return "http.other"
}

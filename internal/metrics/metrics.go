// Package metrics is a dependency-free Prometheus text-exposition
// writer (format 0.0.4) plus a concurrent histogram.
//
// It exists so streamfetchd can serve GET /metrics without pulling a
// client library into a simulator repo. The daemon keeps its own
// figures; this package only renders them. Only what the daemon needs is
// implemented — no summaries, no timestamps, no exemplars — but what is
// emitted is strictly valid: each family is declared by one HELP/TYPE
// pair with its samples adjacent, label values are escaped, histogram
// buckets are cumulative and end with +Inf, and _sum/_count agree with
// the observations.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// ContentType is the value to serve the exposition under.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one name="value" pair on a sample.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// ValidName reports whether s is a legal metric name (label names are
// the same minus ':', which no caller here uses).
func ValidName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// Writer renders samples family by family. A family's HELP/TYPE pair is
// written before its first sample; its samples must be adjacent, so a
// family declared twice panics, as do invalid metric or label names.
// The zero value is ready to use.
type Writer struct {
	b        strings.Builder
	last     string          // family of the previous sample
	declared map[string]bool // every family declared so far
}

// declare starts family name unless it is the one being written.
func (w *Writer) declare(name, typ, help string, labels []Label) {
	if !ValidName(name) {
		panic("metrics: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range labels {
		if !ValidName(l.Name) {
			panic("metrics: invalid label name " + strconv.Quote(l.Name))
		}
	}
	if name == w.last {
		return
	}
	if w.declared[name] {
		panic("metrics: samples of " + name + " are not adjacent")
	}
	if w.declared == nil {
		w.declared = map[string]bool{}
	}
	w.declared[name] = true
	w.last = name
	if help != "" {
		fmt.Fprintf(&w.b, "# HELP %s %s\n", name, escapeHelp(help))
	}
	fmt.Fprintf(&w.b, "# TYPE %s %s\n", name, typ)
}

// Sample writes one counter or gauge sample (typ "counter" or "gauge").
func (w *Writer) Sample(name, typ, help string, v float64, labels ...Label) {
	w.declare(name, typ, help, labels)
	w.b.WriteString(name)
	writeLabels(&w.b, labels, "")
	w.b.WriteByte(' ')
	w.b.WriteString(formatValue(v))
	w.b.WriteByte('\n')
}

// Histogram writes h's cumulative buckets, sum and count.
func (w *Writer) Histogram(name, help string, h *Histogram, labels ...Label) {
	w.declare(name, "histogram", help, labels)
	b := &w.b
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatValue(h.bounds[i])
		}
		b.WriteString(name)
		b.WriteString("_bucket")
		writeLabels(b, labels, le)
		fmt.Fprintf(b, " %d\n", cum)
	}
	b.WriteString(name)
	b.WriteString("_sum")
	writeLabels(b, labels, "")
	b.WriteByte(' ')
	b.WriteString(formatValue(math.Float64frombits(h.sum.Load())))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_count")
	writeLabels(b, labels, "")
	fmt.Fprintf(b, " %d\n", h.count.Load())
}

// WriteTo writes the exposition rendered so far to dst.
func (w *Writer) WriteTo(dst io.Writer) (int64, error) {
	n, err := io.WriteString(dst, w.b.String())
	return int64(n), err
}

// Histogram accumulates observations into cumulative buckets. Safe for
// concurrent Observe.
type Histogram struct {
	bounds []float64       // ascending upper bounds, +Inf excluded
	counts []atomic.Uint64 // one per bound, plus one trailing for +Inf
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

// NewHistogram builds a histogram with the given ascending upper bounds
// (+Inf is implicit and must not be passed).
func NewHistogram(bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("metrics: histogram bounds are not sorted")
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1) // first bound >= v
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// writeLabels renders {a="b",...}; le, when non-empty, is appended as the
// histogram bucket bound.
func writeLabels(b *strings.Builder, labels []Label, le string) {
	if len(labels) == 0 && le == "" {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

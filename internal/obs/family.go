package obs

import (
	"fmt"
	"io"
	"strings"
)

// Family declares one Prometheus metric family: name, help text, type
// and label keys. Both tiers render /metrics only through these methods,
// so the HELP and TYPE lines and every sample's label keys come from the
// declaration, and a misspelled family or label does not compile.
type Family struct {
	Name   string
	Help   string
	Type   string   // "counter", "gauge" or "histogram"
	Labels []string // label keys, in exposition order; none when unlabelled
}

// Prefixed returns the family under a tier prefix: the families obs
// renders for both tiers are declared once, without one.
func (f Family) Prefixed(prefix string) Family {
	f.Name = prefix + f.Name
	return f
}

// Head writes the family's HELP and TYPE lines, once per family.
func (f Family) Head(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
}

// Write writes the head and one sample: a whole single-sample family.
func (f Family) Write(w io.Writer, v any, values ...string) {
	f.Head(w)
	f.Sample(w, v, values...)
}

// Sample writes one sample, labelled by values in the order of the
// family's keys. v is formatted with %v, so it must be a plain number:
// convert a named type with a String method first.
func (f Family) Sample(w io.Writer, v any, values ...string) {
	fmt.Fprintf(w, "%s%s %v\n", f.Name, f.labels(values, ""), v)
}

// Histogram writes h's series: cumulative _bucket samples with an le
// label, then _sum and _count.
func (f Family) Histogram(w io.Writer, h *Histogram, values ...string) {
	s := h.Snapshot()
	for i, b := range s.Bounds {
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, f.labels(values, formatLe(b)), s.Cumulative[i])
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, f.labels(values, "+Inf"), s.Count)
	fmt.Fprintf(w, "%s_sum%s %g\n", f.Name, f.labels(values, ""), s.SumSeconds)
	fmt.Fprintf(w, "%s_count%s %d\n", f.Name, f.labels(values, ""), s.Count)
}

// labels renders {key="value",...} with an le pair last when le is set;
// "" when there is no pair. It panics unless there is one value per key:
// only a wrong call site can miscount them.
func (f Family) labels(values []string, le string) string {
	if len(values) != len(f.Labels) {
		panic(fmt.Sprintf("obs: family %s has %d label keys, got %d values", f.Name, len(f.Labels), len(values)))
	}
	pairs := make([]string, 0, len(values)+1)
	for i, v := range values {
		pairs = append(pairs, fmt.Sprintf("%s=%q", f.Labels[i], v))
	}
	if le != "" {
		pairs = append(pairs, fmt.Sprintf("le=%q", le))
	}
	if len(pairs) == 0 {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

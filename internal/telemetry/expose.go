package telemetry

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// ServeHTTP renders the registry in Prometheus text exposition format
// 0.0.4. Families are sorted by name and series by label signature, so
// the output for a fixed set of registered series is deterministic
// (values aside) and golden-testable.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	r.write(bw)
}

func (r *Registry) write(w *bufio.Writer) {
	// register appends to a family's series under r.mu, so each family's
	// slice is copied here, under the same lock, not after it is released.
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	fams := make([]*family, len(names))
	sers := make([][]*series, len(names))
	sort.Strings(names)
	for i, n := range names {
		fams[i] = r.families[n]
		sers[i] = append([]*series(nil), fams[i].series...)
	}
	r.mu.Unlock()

	for i, f := range fams {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		ser := sers[i]
		sort.Slice(ser, func(a, b int) bool { return ser[a].sig < ser[b].sig })
		for _, s := range ser {
			if s.hist != nil {
				writeHistogram(w, f.name, s)
				continue
			}
			fmt.Fprintf(w, "%s%s %s\n", f.name, s.sig, formatValue(s.read()))
		}
	}
}

// writeHistogram emits the cumulative _bucket series plus _sum and
// _count. Bucket counts are read low-to-high and accumulated; a scrape
// racing Observe can therefore only under-count the tail, never show a
// non-monotonic bucket sequence for the values it read.
func writeHistogram(w *bufio.Writer, name string, s *series) {
	h := s.hist
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketSig(s.labels, formatValue(b)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketSig(s.labels, "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, s.sig, formatValue(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, s.sig, cum)
}

// renderLabels builds the {k="v",...} signature for a sorted label set;
// empty for no labels.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// bucketSig renders a histogram bucket's label set: the series labels
// plus le, with le sorted into position like any other label.
func bucketSig(labels []Label, le string) string {
	all := make([]Label, 0, len(labels)+1)
	all = append(all, labels...)
	all = append(all, Label{Key: "le", Value: le})
	sort.Slice(all, func(a, b int) bool { return all[a].Key < all[b].Key })
	return renderLabels(all)
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// formatValue renders a float the way Prometheus clients do: integers
// without a decimal point, everything else in shortest-round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 && !math.Signbit(v) || (v == math.Trunc(v) && v > -1e15 && v < 0) {
		return strconv.FormatInt(int64(v), 10)
	}
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

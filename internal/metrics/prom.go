package metrics

import (
	"fmt"
	"io"
	"strings"
)

// Prometheus text-format exposition (version 0.0.4): HELP/TYPE comments per
// family, one sample line per series, histograms as cumulative le-buckets
// plus _sum and _count. Only non-empty buckets are emitted — with 300+
// log-scale buckets per histogram, empty runs would dominate the payload.

// WriteProm writes the registry in Prometheus text format. A nil registry
// writes nothing.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	var err error
	lastFamily := ""
	r.visit(func(f *family, labels []Label, s *series) {
		if err != nil {
			return
		}
		name := sanitizeName(f.name)
		if f.name != lastFamily {
			lastFamily = f.name
			if f.help != "" {
				_, err = fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(f.help))
				if err != nil {
					return
				}
			}
			if _, err = fmt.Fprintf(w, "# TYPE %s %s\n", name, f.kind); err != nil {
				return
			}
		}
		switch f.kind {
		case KindCounter:
			_, err = fmt.Fprintf(w, "%s%s %s\n", name, renderLabels(labels), formatValue(s.ctr.Value()))
		case KindGauge:
			_, err = fmt.Fprintf(w, "%s%s %s\n", name, renderLabels(labels), formatValue(s.gauge.Value()))
		case KindHistogram:
			err = writePromHistogram(w, name, labels, s.hist)
		}
	})
	return err
}

// writePromHistogram emits one histogram series: cumulative buckets (ending
// with le="+Inf"), then _sum and _count. Buckets holding an exemplar get the
// OpenMetrics exemplar suffix (`# {trace_id="..."} value`) so a scrape can
// jump from a tail bucket straight to the trace that landed there.
func writePromHistogram(w io.Writer, name string, labels []Label, h *Histogram) error {
	rows := h.snapshotBuckets()
	var cum uint64
	for _, row := range rows {
		cum = row.cumCount
		le := append(append([]Label(nil), labels...), Label{Key: "le", Value: formatValue(row.upper)})
		suffix := ""
		if row.ex != nil {
			suffix = fmt.Sprintf(" # {trace_id=\"%s\"} %s", escapeLabelValue(row.ex.TraceID), formatValue(row.ex.Value))
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", name, renderLabels(le), row.cumCount, suffix); err != nil {
			return err
		}
	}
	// The +Inf bucket is mandatory and must equal _count, even when the
	// overflow bucket itself was empty.
	if len(rows) == 0 || rows[len(rows)-1].upper != bucketUpper(overIdx) {
		le := append(append([]Label(nil), labels...), Label{Key: "le", Value: "+Inf"})
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, renderLabels(labels), formatValue(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(labels), h.Count())
	return err
}

// renderLabels formats a label set as {k="v",...}, empty string for none.
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
		b.WriteString(sanitizeName(l.Key))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes backslash, double-quote and newline per the text
// format. Operator names carry σ, π, ⋈ and quoted values — UTF-8 itself is
// legal in label values.
func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes backslash and newline in HELP text.
func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

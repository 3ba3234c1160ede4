// Package promtext renders obs snapshots in the Prometheus text
// exposition format (version 0.0.4) with zero dependencies.
//
// Metric names are derived mechanically from the canonical instrument
// catalog: the dotted instrument name is namespaced and sanitized
// (`core.cache_hits` -> `incdes_core_cache_hits_total`), counters gain
// the `_total` suffix, and gauges and histograms keep their bare name.
// HELP strings come from obs.Catalog when the instrument is declared
// there.
//
// A Collection gathers one or more snapshots, each under its own label
// set (the serve layer adds {strategy="MH"} per-strategy aggregates),
// plus ad-hoc process-level gauges/counters, and writes them in a fully
// deterministic order: metrics sorted by name, samples sorted by label
// set, HELP/TYPE emitted once per metric.
package promtext

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"incdes/internal/obs"
)

// DefaultNamespace is the metric-name prefix used by the incdes tools.
const DefaultNamespace = "incdes"

// MetricName converts a dotted instrument name into the exported
// Prometheus metric name: namespace + sanitized instrument + the kind's
// conventional suffix (`_total` for counters, none for gauges and
// histograms — histogram series add their own `_bucket`/`_sum`/`_count`
// suffixes per sample).
func MetricName(namespace, instrument string, kind obs.InstrumentKind) string {
	name := sanitize(instrument)
	if namespace != "" {
		name = sanitize(namespace) + "_" + name
	}
	if kind == obs.KindCounter {
		name += "_total"
	}
	return name
}

// sanitize maps an arbitrary instrument name onto the Prometheus metric
// name alphabet [a-zA-Z0-9_:], replacing every other rune with '_'.
func sanitize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// renderLabels renders a label map as {k="v",...} with keys sorted, or
// "" for an empty set.
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, sanitize(k), escapeLabel(labels[k]))
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a sample value: integral values without a decimal
// point, everything else in shortest round-trip form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

type sample struct {
	suffix string // per-sample name suffix: "_bucket"/"_sum"/"_count" for histograms
	labels string
	value  float64
	// group/order pin the exposition order: histogram series must come
	// out as buckets in ascending le, then _sum, then _count, per label
	// set — lexical label sorting would interleave "10" before "2.5".
	// Scalar samples use group == labels and order 0, which degenerates
	// to the plain sorted-by-labels order.
	group string
	order int
}

type metric struct {
	typ     string // "counter", "gauge" or "histogram"
	help    string
	samples []sample
}

// Collection accumulates metrics for one exposition document.
type Collection struct {
	namespace string
	help      map[string]obs.Instrument // catalog lookup by instrument name
	metrics   map[string]*metric        // by exported metric name
}

// NewCollection returns an empty collection using the given metric-name
// namespace ("" for none).
func NewCollection(namespace string) *Collection {
	help := make(map[string]obs.Instrument)
	for _, ins := range obs.Catalog() {
		help[ins.Name] = ins
	}
	return &Collection{namespace: namespace, help: help, metrics: map[string]*metric{}}
}

func (c *Collection) metricFor(name, typ, help string) *metric {
	m, ok := c.metrics[name]
	if !ok {
		m = &metric{typ: typ, help: help}
		c.metrics[name] = m
	}
	return m
}

func (c *Collection) addSample(instrument string, kind obs.InstrumentKind, labels map[string]string, v float64) {
	name := MetricName(c.namespace, instrument, kind)
	help := "instrument " + instrument
	if ins, ok := c.help[instrument]; ok {
		help = ins.Help
	}
	m := c.metricFor(name, string(kind), help)
	l := renderLabels(labels)
	m.samples = append(m.samples, sample{labels: l, value: v, group: l})
}

// formatLe renders a bucket boundary as an `le` label value in shortest
// round-trip form.
func formatLe(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// AddHistogram records one histogram snapshot under the given label set
// as the conventional series triple: cumulative `_bucket` samples per
// boundary plus `+Inf`, then `_sum` and `_count`. Empty snapshots (no
// bucket layout) are skipped.
func (c *Collection) AddHistogram(instrument string, labels map[string]string, hs obs.HistogramSnapshot) {
	if len(hs.Bounds) == 0 || len(hs.Counts) != len(hs.Bounds)+1 {
		return
	}
	name := MetricName(c.namespace, instrument, obs.KindHistogram)
	help := "instrument " + instrument
	if ins, ok := c.help[instrument]; ok {
		help = ins.Help
	}
	m := c.metricFor(name, "histogram", help)
	group := renderLabels(labels)
	withLe := make(map[string]string, len(labels)+1)
	for k, v := range labels {
		withLe[k] = v
	}
	var cum int64
	for i, b := range hs.Bounds {
		cum += hs.Counts[i]
		withLe["le"] = formatLe(b)
		m.samples = append(m.samples, sample{
			suffix: "_bucket", labels: renderLabels(withLe), value: float64(cum), group: group, order: i,
		})
	}
	withLe["le"] = "+Inf"
	m.samples = append(m.samples,
		sample{suffix: "_bucket", labels: renderLabels(withLe), value: float64(hs.Count), group: group, order: len(hs.Bounds)},
		sample{suffix: "_sum", labels: group, value: hs.Sum, group: group, order: len(hs.Bounds) + 1},
		sample{suffix: "_count", labels: group, value: float64(hs.Count), group: group, order: len(hs.Bounds) + 2},
	)
}

// Add records every instrument of one snapshot under the given label
// set (nil for none).
func (c *Collection) Add(labels map[string]string, s obs.Snapshot) {
	for name, v := range s.Counters {
		c.addSample(name, obs.KindCounter, labels, float64(v))
	}
	for name, v := range s.Gauges {
		c.addSample(name, obs.KindGauge, labels, float64(v))
	}
	for name, hs := range s.Histograms {
		c.AddHistogram(name, labels, hs)
	}
}

// AddGauge records one ad-hoc gauge sample under the full metric name
// derived from instrument (no `_total` suffix).
func (c *Collection) AddGauge(instrument, help string, labels map[string]string, v float64) {
	name := MetricName(c.namespace, instrument, obs.KindGauge)
	m := c.metricFor(name, "gauge", help)
	l := renderLabels(labels)
	m.samples = append(m.samples, sample{labels: l, value: v, group: l})
}

// AddCounter records one ad-hoc counter sample; the exported name gains
// the `_total` suffix.
func (c *Collection) AddCounter(instrument, help string, labels map[string]string, v float64) {
	name := MetricName(c.namespace, instrument, obs.KindCounter)
	m := c.metricFor(name, "counter", help)
	l := renderLabels(labels)
	m.samples = append(m.samples, sample{labels: l, value: v, group: l})
}

// Write renders the collection: metrics sorted by exported name, one
// HELP and TYPE line each, samples sorted by label set.
func (c *Collection) Write(w io.Writer) error {
	names := make([]string, 0, len(c.metrics))
	for name := range c.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := c.metrics[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, m.help, name, m.typ); err != nil {
			return err
		}
		sort.Slice(m.samples, func(i, j int) bool {
			a, b := m.samples[i], m.samples[j]
			if a.group != b.group {
				return a.group < b.group
			}
			return a.order < b.order
		})
		for _, s := range m.samples {
			if _, err := fmt.Fprintf(w, "%s%s%s %s\n", name, s.suffix, s.labels, formatValue(s.value)); err != nil {
				return err
			}
		}
	}
	return nil
}

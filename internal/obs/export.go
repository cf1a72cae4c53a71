package obs

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/sim"
)

// This file holds the text exporters. Both are deterministic: metric
// and series iteration is sorted, and floats render with strconv's
// shortest round-trip formatting, so the same seed yields byte-
// identical output.

// formatFloat renders v in the shortest form that round-trips.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders the registry in the Prometheus text
// exposition format. Counters and gauges emit one sample each;
// histograms emit a summary (quantile series plus _sum and _count).
func WritePrometheus(w io.Writer, r *Registry) error {
	lastType := map[string]bool{}
	typeLine := func(name, typ string) string {
		if lastType[name] {
			return ""
		}
		lastType[name] = true
		return fmt.Sprintf("# TYPE %s %s\n", name, typ)
	}
	var err error
	emit := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, e := range r.sortedEntries() {
		name, l, h := e.name, e.labels, e.hist
		switch e.kind {
		case kindCounter:
			emit("%s", typeLine(name, "counter"))
			emit("%s%s %d\n", name, l, e.count())
		case kindGauge:
			emit("%s", typeLine(name, "gauge"))
			emit("%s%s %s\n", name, l, formatFloat(e.gauge()))
		case kindHistogram:
			emit("%s", typeLine(name, "summary"))
			qs := h.Quantiles(50, 95, 99)
			for i, q := range []string{"0.5", "0.95", "0.99"} {
				emit("%s%s %d\n", name, quantileLabels(l, q), int64(qs[i]))
			}
			emit("%s_sum%s %d\n", name, l, int64(h.Sum()))
			emit("%s_count%s %d\n", name, l, h.Count())
		}
	}
	return err
}

// quantileLabels renders l with a quantile="q" label appended.
func quantileLabels(l Labels, q string) string {
	s := l.String()
	if s == "" {
		return fmt.Sprintf("{quantile=%q}", q)
	}
	return s[:len(s)-1] + fmt.Sprintf(",quantile=%q}", q)
}

// WriteCSVTable writes one header row followed by rows through a
// shared csv.Writer. Every CSV surface of the repo (sampler exports,
// irsblame -csv) funnels through here so quoting and flushing behave
// identically everywhere.
func WriteCSVTable(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV renders the sampler's time series in long form, one row per
// point: metric,labels,t_ns,value. Rows are sorted by series then time.
func WriteCSV(w io.Writer, s *Sampler) error {
	var rows [][]string
	for _, se := range s.AllSeries() {
		for _, pt := range se.Points {
			rows = append(rows, []string{
				se.Name,
				se.Labels.String(),
				strconv.FormatInt(int64(pt.At), 10),
				formatFloat(pt.V),
			})
		}
	}
	return WriteCSVTable(w, []string{"metric", "labels", "t_ns", "value"}, rows)
}

// HistogramLine renders the headline stats of a histogram as
// "n=<count> p50=<..> p95=<..> p99=<..> max=<..>" using virtual-time
// formatting, for summary tables.
func HistogramLine(h *Histogram) string {
	if h.Count() == 0 {
		return "n=0"
	}
	qs := h.Quantiles(50, 95, 99)
	return fmt.Sprintf("n=%d p50=%s p95=%s p99=%s max=%s",
		h.Count(), qs[0], qs[1], qs[2], h.Max())
}

// WriteFile streams write's output into a freshly created file at
// path, or into stdout when path is "-". It is the one export-to-path
// step every CLI shares; each caller prints its own confirmation.
func WriteFile(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// CounterValue is a convenience lookup: the value of the counter
// registered under (name, labels), 0 when absent.
func CounterValue(r *Registry, name string, l Labels) int64 {
	if e := r.find(name, l, kindCounter); e != nil {
		return e.count()
	}
	return 0
}

// CounterTime is CounterValue for nanosecond-accumulating counters.
func CounterTime(r *Registry, name string, l Labels) sim.Time {
	return sim.Time(CounterValue(r, name, l))
}

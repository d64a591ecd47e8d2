package report

import (
	"fmt"
	"html"
	"io"
	"math"
	"strings"
)

// DiffRow is one (item, metric) delta between two sides. DeltaPct is the
// relative change from old to new ((new-old)/old, percent; +Inf for a rise
// from zero); Limit is the bound new may not cross and Exceeds marks rows
// that crossed it (see verdict).
type DiffRow struct {
	Run      string  `json:"run"`
	Metric   string  `json:"metric"`
	Old      float64 `json:"old"`
	New      float64 `json:"new"`
	DeltaPct float64 `json:"delta_pct"`
	Limit    float64 `json:"limit"`
	Exceeds  bool    `json:"exceeds,omitempty"`
}

// Diff is the comparison of two sides: per-item metric deltas for items
// present on both, plus the item keys only one side has.
type Diff struct {
	OldLabel, NewLabel string
	Tolerance          float64
	Rows               []DiffRow
	OnlyOld, OnlyNew   []string
}

// DefaultTolerance is the relative band every comparison uses unless told
// otherwise: the perf gate and both -diff paths.
const DefaultTolerance = 0.10

// CheckTolerance rejects a tolerance no comparison can use: a negative,
// NaN or infinite one.
func CheckTolerance(tol float64) error {
	if tol < 0 || math.IsNaN(tol) || math.IsInf(tol, 0) {
		return fmt.Errorf("tolerance %v: want a finite fraction >= 0", tol)
	}
	return nil
}

// Metric describes one compared metric of an item: how to read it and
// whether an increase is the regressing direction.
type Metric[T any] struct {
	Name    string
	Get     func(*T) float64
	UpIsBad bool
}

// verdict is the one comparison rule. A metric moving from old to cur may
// not cross limit: old·(1+tol) when up is bad, old·(1−tol) otherwise.
// Landing exactly on the limit passes, improvements never exceed, and a
// rise from zero exceeds when up is bad.
func verdict(old, cur, tol float64, upIsBad bool) (limit float64, exceeds bool) {
	if upIsBad {
		limit = old * (1 + tol)
		return limit, cur > limit
	}
	limit = old * (1 - tol)
	return limit, cur < limit
}

// Match compares two item lists. Items pair on key; a key appearing more
// than once on a side pairs positionally within that key. Each pair gets
// one row per metric, in old order, except metrics zero on both sides.
// Unpaired items land in OnlyOld and OnlyNew. tol is the relative
// tolerance (0.10 = 10%) the verdict applies.
func Match[T any](old, cur []T, key func(*T) string, metrics []Metric[T], tol float64) *Diff {
	d := &Diff{Tolerance: tol}
	pool := make(map[string][]*T, len(cur))
	for i := range cur {
		k := key(&cur[i])
		pool[k] = append(pool[k], &cur[i])
	}
	paired := make(map[string]int, len(pool))
	for i := range old {
		o := &old[i]
		k := key(o)
		if paired[k] == len(pool[k]) {
			d.OnlyOld = append(d.OnlyOld, k)
			continue
		}
		c := pool[k][paired[k]]
		paired[k]++
		for _, m := range metrics {
			ov, nv := m.Get(o), m.Get(c)
			if ov == 0 && nv == 0 {
				continue
			}
			row := DiffRow{Run: k, Metric: m.Name, Old: ov, New: nv, DeltaPct: math.Inf(1)}
			if ov != 0 {
				row.DeltaPct = 100 * (nv - ov) / ov
			}
			row.Limit, row.Exceeds = verdict(ov, nv, tol, m.UpIsBad)
			d.Rows = append(d.Rows, row)
		}
	}
	// The first paired[k] items of each key were paired; the rest are new.
	for i := range cur {
		k := key(&cur[i])
		if paired[k] > 0 {
			paired[k]--
			continue
		}
		d.OnlyNew = append(d.OnlyNew, k)
	}
	return d
}

var exportMetrics = []Metric[Run]{
	{"ops_per_sec", func(r *Run) float64 { return r.OpsPerSec }, false},
	{"read_amp", func(r *Run) float64 { return r.ReadAmp }, true},
	{"mean_us", func(r *Run) float64 { return r.Latency.MeanUs }, true},
	{"p99_us", func(r *Run) float64 { return r.Latency.P99Us }, true},
	{"max_us", func(r *Run) float64 { return r.Latency.MaxUs }, true},
}

// diffKey identifies a run within an export for matching across sides.
// Open-loop sweeps reuse one Name across points, so the offered rate,
// queue depth, and arrival process are part of the identity.
func diffKey(r *Run) string {
	k := runLabel(r)
	if r.OfferedOpsPerSec > 0 {
		k += fmt.Sprintf(" qd=%d %s offered=%.0f", r.QueueDepth, r.Arrivals, r.OfferedOpsPerSec)
	}
	return k
}

// DiffExports compares two exports run by run: Match over their runs,
// keyed by label (name/workload, plus the sweep-point identity for
// open-loop runs).
func DiffExports(old, cur *Export, tol float64) *Diff {
	d := Match(old.Runs, cur.Runs, diffKey, exportMetrics, tol)
	d.OldLabel, d.NewLabel = exportLabel(old), exportLabel(cur)
	return d
}

func exportLabel(e *Export) string {
	l := e.Tool
	if l == "" {
		l = "run"
	}
	if e.Scale != "" {
		l += " scale=" + e.Scale
	}
	if e.Version != "" {
		l += " version=" + e.Version
	}
	return l
}

// Changed counts rows with any nonzero delta; Exceeded counts rows beyond
// tolerance. A self-diff has Changed() == 0.
func (d *Diff) Changed() int {
	n := 0
	for _, r := range d.Rows {
		if r.DeltaPct != 0 {
			n++
		}
	}
	return n
}

// Exceeded counts rows whose regression is beyond tolerance.
func (d *Diff) Exceeded() int {
	n := 0
	for _, r := range d.Rows {
		if r.Exceeds {
			n++
		}
	}
	return n
}

// Failures counts what fails the comparison: rows beyond tolerance plus
// old items missing on the new side. The perf gate and -diff both exit
// non-zero on it.
func (d *Diff) Failures() int {
	return d.Exceeded() + len(d.OnlyOld)
}

// WriteText renders the diff as an aligned stdout table. Unchanged rows
// print as "=", regressions beyond tolerance as "!".
func (d *Diff) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "old: %s\nnew: %s\n", d.OldLabel, d.NewLabel)
	if len(d.Rows) == 0 && len(d.OnlyOld) == 0 && len(d.OnlyNew) == 0 {
		b.WriteString("no comparable runs\n")
		_, err := io.WriteString(w, b.String())
		return err
	}
	runW, metW := 3, 6
	for _, r := range d.Rows {
		if len(r.Run) > runW {
			runW = len(r.Run)
		}
		if len(r.Metric) > metW {
			metW = len(r.Metric)
		}
	}
	fmt.Fprintf(&b, "%-*s  %-*s  %14s  %14s  %9s\n", runW, "run", metW, "metric", "old", "new", "delta")
	for _, r := range d.Rows {
		flag := " "
		switch {
		case r.Exceeds:
			flag = "!"
		case r.DeltaPct == 0:
			flag = "="
		}
		fmt.Fprintf(&b, "%-*s  %-*s  %14.3f  %14.3f  %+8.2f%% %s\n",
			runW, r.Run, metW, r.Metric, r.Old, r.New, r.DeltaPct, flag)
	}
	for _, k := range d.OnlyOld {
		fmt.Fprintf(&b, "only in old: %s\n", k)
	}
	for _, k := range d.OnlyNew {
		fmt.Fprintf(&b, "only in new: %s\n", k)
	}
	fmt.Fprintf(&b, "%d metrics compared, %d changed, %d beyond %.0f%% tolerance\n",
		len(d.Rows), d.Changed(), d.Exceeded(), 100*d.Tolerance)
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteHTML renders the diff as a self-contained HTML document with
// tolerance highlighting.
func (d *Diff) WriteHTML(w io.Writer, title string) error {
	var b strings.Builder
	esc := html.EscapeString
	fmt.Fprintf(&b, "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n<title>%s</title>\n<style>\n%s.worse{background:#fdd}\n.same{color:#999}\n</style>\n</head>\n<body>\n", esc(title), htmlStyle)
	fmt.Fprintf(&b, "<h1>%s</h1>\n", esc(title))
	fmt.Fprintf(&b, "<p class=\"meta\">old: %s<br>new: %s<br>%d metrics compared, %d changed, %d beyond %.0f%% tolerance</p>\n",
		esc(d.OldLabel), esc(d.NewLabel), len(d.Rows), d.Changed(), d.Exceeded(), 100*d.Tolerance)
	b.WriteString("<table>\n<tr><th>run</th><th>metric</th><th>old</th><th>new</th><th>delta %</th></tr>\n")
	for _, r := range d.Rows {
		cls := ""
		switch {
		case r.Exceeds:
			cls = " class=\"worse\""
		case r.DeltaPct == 0:
			cls = " class=\"same\""
		}
		fmt.Fprintf(&b, "<tr%s><td>%s</td><td>%s</td><td>%.3f</td><td>%.3f</td><td>%+.2f</td></tr>\n",
			cls, esc(r.Run), esc(r.Metric), r.Old, r.New, r.DeltaPct)
	}
	b.WriteString("</table>\n")
	if len(d.OnlyOld) > 0 || len(d.OnlyNew) > 0 {
		b.WriteString("<p class=\"meta\">")
		for _, k := range d.OnlyOld {
			fmt.Fprintf(&b, "only in old: %s<br>", esc(k))
		}
		for _, k := range d.OnlyNew {
			fmt.Fprintf(&b, "only in new: %s<br>", esc(k))
		}
		b.WriteString("</p>\n")
	}
	b.WriteString("</body>\n</html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

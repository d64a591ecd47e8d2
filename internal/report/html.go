package report

import (
	"fmt"
	"html"
	"io"
	"math"
	"strings"

	"pipette/internal/resource"
	"pipette/internal/telemetry"
)

// stageColors is the fixed waterfall palette, keyed by stage name so the
// same stage has the same color in every report. Unknown names fall back
// to gray.
var stageColors = map[string]string{
	"syscall":   "#4e79a7",
	"cache":     "#59a14f",
	"queue":     "#9c755f",
	"construct": "#b07aa1",
	"ring":      "#edc948",
	"firmware":  "#f28e2b",
	"nand":      "#e15759",
	"retry":     "#8c1515",
	"dma":       "#76b7b2",
	"program":   "#ff9da7",
	"writeback": "#86bcb6",
	"copyout":   "#a0cbe8",
	"other":     "#bab0ac",
}

func stageColor(name string) string {
	if c, ok := stageColors[name]; ok {
		return c
	}
	return "#999999"
}

const htmlStyle = `body{font:14px/1.45 -apple-system,"Segoe UI",Roboto,sans-serif;margin:2em auto;max-width:72em;padding:0 1em;color:#1a1a1a}
h1{font-size:1.5em;border-bottom:2px solid #ddd;padding-bottom:.3em}
h2{font-size:1.2em;margin-top:2em}
h3{font-size:1.05em;margin-top:1.5em}
table{border-collapse:collapse;margin:.6em 0}
th,td{border:1px solid #ddd;padding:.25em .6em;text-align:right}
th:first-child,td:first-child{text-align:left}
th{background:#f4f4f4}
.bar{display:flex;height:1.4em;width:100%;max-width:48em;border:1px solid #ccc;border-radius:2px;overflow:hidden;margin:.4em 0}
.bar span{display:block;height:100%}
.legend{margin:.2em 0 .6em;font-size:.85em}
.legend span{display:inline-block;margin-right:1em;white-space:nowrap}
.swatch{display:inline-block;width:.8em;height:.8em;margin-right:.3em;vertical-align:-.08em;border-radius:2px}
.heat{border-collapse:collapse}
.heat td{border:none;padding:0;width:4px;height:14px;min-width:2px}
.heat td.rn{width:auto;padding:0 .6em 0 0;font-size:.85em;text-align:right;white-space:nowrap}
.ubar{display:inline-block;width:6em;height:.8em;border:1px solid #ccc;border-radius:2px;overflow:hidden;vertical-align:-.08em;background:#fafafa}
.ubar span{display:block;height:100%;background:#4e79a7}
.meta{color:#555;font-size:.9em}
details{margin:.6em 0}
summary{cursor:pointer;color:#555}
`

// WriteHTML renders the exports as one self-contained HTML document: a
// latency percentile table, a per-run stage waterfall, and a per-run
// resource-utilization heatmap. The output carries no wall-clock content
// and iterates only slices, so identical exports render byte-identically.
func WriteHTML(w io.Writer, title string, exports []*Export) error {
	var b strings.Builder
	esc := html.EscapeString
	fmt.Fprintf(&b, "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n<title>%s</title>\n<style>\n%s</style>\n</head>\n<body>\n", esc(title), htmlStyle)
	fmt.Fprintf(&b, "<h1>%s</h1>\n", esc(title))

	for _, e := range exports {
		hdr := e.Tool
		if hdr == "" {
			hdr = "run"
		}
		if e.Scale != "" {
			hdr += " (scale " + e.Scale + ")"
		}
		if e.Version != "" {
			hdr += " · " + e.Version
		}
		fmt.Fprintf(&b, "<h2>%s</h2>\n", esc(hdr))
		writeLatencyTable(&b, e.Runs)
		writeSaturation(&b, e.Runs)
		writeClusterSummary(&b, e.Runs)
		writeIndexSummary(&b, e.Runs)
		for i := range e.Runs {
			writeRun(&b, &e.Runs[i])
		}
	}
	b.WriteString("</body>\n</html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// writeLatencyTable renders the percentile table: one row per run.
func writeLatencyTable(b *strings.Builder, runs []Run) {
	if len(runs) == 0 {
		return
	}
	b.WriteString("<h3>End-to-end latency (µs)</h3>\n<table>\n<tr><th>run</th><th>requests</th><th>mean</th><th>p50</th><th>p90</th><th>p99</th><th>p99.9</th><th>max</th></tr>\n")
	for i := range runs {
		r := &runs[i]
		fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td>%.2f</td><td>%.2f</td><td>%.2f</td><td>%.2f</td><td>%.2f</td><td>%.2f</td></tr>\n",
			html.EscapeString(runLabel(r)), r.Requests,
			r.Latency.MeanUs, r.Latency.P50Us, r.Latency.P90Us,
			r.Latency.P99Us, r.Latency.P999Us, r.Latency.MaxUs)
	}
	b.WriteString("</table>\n")
}

// curvePalette colors the throughput-vs-latency curves, cycling when an
// export has more groups than colors.
var curvePalette = []string{
	"#4e79a7", "#e15759", "#59a14f", "#f28e2b", "#b07aa1",
	"#76b7b2", "#edc948", "#9c755f", "#ff9da7", "#bab0ac",
}

// satGroup is one throughput-vs-latency curve: the Poisson rate sweep of
// one (engine, queue depth) configuration, in export order.
type satGroup struct {
	name  string
	depth int
	runs  []*Run
}

// writeSaturation renders the open-loop runs — those with an offered
// arrival rate — as throughput-vs-latency curves: an SVG chart of achieved
// throughput against mean latency (log scale), one curve per (run name,
// queue depth) over its Poisson rate sweep, plus the numeric table
// including the bursty points. Closed-loop runs are skipped.
func writeSaturation(b *strings.Builder, runs []Run) {
	var groups []*satGroup
	var open []*Run
	for i := range runs {
		r := &runs[i]
		if r.OfferedOpsPerSec <= 0 {
			continue
		}
		open = append(open, r)
		if r.Arrivals != "poisson" {
			continue
		}
		var g *satGroup
		for _, cand := range groups {
			if cand.name == r.Name && cand.depth == r.QueueDepth {
				g = cand
				break
			}
		}
		if g == nil {
			g = &satGroup{name: r.Name, depth: r.QueueDepth}
			groups = append(groups, g)
		}
		g.runs = append(g.runs, r)
	}
	if len(open) == 0 {
		return
	}

	b.WriteString("<h3>Throughput vs latency (open loop)</h3>\n")
	writeSaturationChart(b, groups)
	b.WriteString("<table>\n<tr><th>run</th><th>qd</th><th>arrivals</th><th>offered/s</th><th>achieved/s</th><th>mean (µs)</th><th>p99 (µs)</th></tr>\n")
	for _, r := range open {
		fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td>%s</td><td>%.0f</td><td>%.0f</td><td>%.2f</td><td>%.2f</td></tr>\n",
			html.EscapeString(r.Name), r.QueueDepth, html.EscapeString(r.Arrivals),
			r.OfferedOpsPerSec, r.OpsPerSec, r.Latency.MeanUs, r.Latency.P99Us)
	}
	b.WriteString("</table>\n")
}

// writeSaturationChart draws the curves: x is achieved throughput
// (linear), y is mean latency (log10). The hockey-stick bend of each curve
// is the configuration's saturation knee.
func writeSaturationChart(b *strings.Builder, groups []*satGroup) {
	if len(groups) == 0 {
		return
	}
	var maxX, minY, maxY float64
	first := true
	for _, g := range groups {
		for _, r := range g.runs {
			if r.OpsPerSec > maxX {
				maxX = r.OpsPerSec
			}
			y := r.Latency.MeanUs
			if y <= 0 {
				continue
			}
			if first || y < minY {
				minY = y
			}
			if first || y > maxY {
				maxY = y
			}
			first = false
		}
	}
	if maxX <= 0 || first || minY == maxY {
		return
	}
	const (
		w, h                   = 640.0, 320.0
		padL, padR, padT, padB = 70.0, 10.0, 10.0, 40.0
	)
	logMin, logMax := math.Log10(minY), math.Log10(maxY)
	px := func(x float64) float64 { return padL + (w-padL-padR)*x/maxX }
	py := func(y float64) float64 {
		return h - padB - (h-padT-padB)*(math.Log10(y)-logMin)/(logMax-logMin)
	}

	fmt.Fprintf(b, "<svg width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\" style=\"font:11px sans-serif\">\n", w, h, w, h)
	fmt.Fprintf(b, "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" fill=\"none\" stroke=\"#ccc\"/>\n",
		padL, padT, w-padL-padR, h-padT-padB)
	// Decade gridlines on the log-latency axis.
	for d := math.Ceil(logMin); d <= math.Floor(logMax); d++ {
		y := py(math.Pow(10, d))
		fmt.Fprintf(b, "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"#eee\"/>\n", padL, y, w-padR, y)
		fmt.Fprintf(b, "<text x=\"%.1f\" y=\"%.1f\" text-anchor=\"end\">%.0f µs</text>\n", padL-6, y+4, math.Pow(10, d))
	}
	for i := 1; i <= 4; i++ {
		x := px(maxX * float64(i) / 4)
		fmt.Fprintf(b, "<text x=\"%.1f\" y=\"%.1f\" text-anchor=\"middle\">%.0fk/s</text>\n",
			x, h-padB+16, maxX*float64(i)/4/1e3)
	}
	for gi, g := range groups {
		color := curvePalette[gi%len(curvePalette)]
		var pts []string
		for _, r := range g.runs {
			if r.Latency.MeanUs <= 0 {
				continue
			}
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", px(r.OpsPerSec), py(r.Latency.MeanUs)))
		}
		if len(pts) == 0 {
			continue
		}
		fmt.Fprintf(b, "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" stroke-width=\"1.5\"/>\n",
			strings.Join(pts, " "), color)
		for _, p := range pts {
			xy := strings.Split(p, ",")
			fmt.Fprintf(b, "<circle cx=\"%s\" cy=\"%s\" r=\"2.5\" fill=\"%s\"/>\n", xy[0], xy[1], color)
		}
		fmt.Fprintf(b, "<text x=\"%.1f\" y=\"%.1f\" fill=\"%s\">%s qd=%d</text>\n",
			padL+8, padT+14+float64(gi)*14, color, html.EscapeString(g.name), g.depth)
	}
	b.WriteString("</svg>\n")
}

// HotShardShare reports the largest single-shard fraction of primary
// routing for a cluster run (1/shards is balanced, 1.0 is one hot shard).
func HotShardShare(shards []ShardSummary) float64 {
	var max, total uint64
	for i := range shards {
		total += shards[i].Primary
		if shards[i].Primary > max {
			max = shards[i].Primary
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) / float64(total)
}

// writeClusterSummary renders the cluster runs — those carrying per-shard
// summaries — side by side: goodput, admission-control counters, and
// hot-shard concentration, the replication-vs-skew trade-off at a glance.
func writeClusterSummary(b *strings.Builder, runs []Run) {
	var cl []*Run
	for i := range runs {
		if len(runs[i].Shards) > 0 {
			cl = append(cl, &runs[i])
		}
	}
	if len(cl) == 0 {
		return
	}
	b.WriteString("<h3>Cluster summary</h3>\n<table>\n<tr><th>run</th><th>shards</th><th>goodput/s</th><th>hot shard %</th><th>rejected</th><th>throttled</th><th>lost</th><th>hedges</th><th>failovers</th></tr>\n")
	for _, r := range cl {
		var hedges, failovers uint64
		for i := range r.Shards {
			hedges += r.Shards[i].Hedges
			failovers += r.Shards[i].Failovers
		}
		fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td>%.0f</td><td>%.1f</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td></tr>\n",
			html.EscapeString(runLabel(r)), len(r.Shards), r.OpsPerSec,
			100*HotShardShare(r.Shards), r.Rejected, r.Throttled, r.Lost,
			hedges, failovers)
	}
	b.WriteString("</table>\n")
}

// writeIndexSummary renders the KV index-engine runs — those carrying an
// index ledger — side by side: structure shape (tree height and node reads
// per lookup, LSM runs), filter and cache effectiveness, and the absent-key
// probe latencies, where the fine-read path's sub-page index reads show.
func writeIndexSummary(b *strings.Builder, runs []Run) {
	var ix []*Run
	for i := range runs {
		if runs[i].Index != nil {
			ix = append(ix, &runs[i])
		}
	}
	if len(ix) == 0 {
		return
	}
	b.WriteString("<h3>KV index engines</h3>\n<table>\n<tr><th>run</th><th>index</th><th>height</th><th>node rd/get</th><th>runs</th><th>bloom neg</th><th>bloom FP %</th><th>cache hit %</th><th>neg probe mean (µs)</th><th>neg probe p99 (µs)</th><th>probe read KB</th><th>idx read MB</th></tr>\n")
	for _, r := range ix {
		s := r.Index
		fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td>%d</td><td>%.2f</td><td>%d</td><td>%d</td><td>%.2f</td><td>%.1f</td><td>%.2f</td><td>%.2f</td><td>%.1f</td><td>%.1f</td></tr>\n",
			html.EscapeString(runLabel(r)), html.EscapeString(s.Kind),
			s.Height, s.NodeReadsPerLookup, s.Runs, s.BloomNegative,
			s.BloomFPPct, s.CacheHitPct, s.NegProbeMeanUs, s.NegProbeP99Us,
			s.NegProbeReadKB, s.ReadMB)
	}
	b.WriteString("</table>\n")
}

// writeShards renders one cluster run's per-shard section: the routing and
// replica-work ledger plus a utilization bar per member (the busiest
// resource's busy fraction over the replay).
func writeShards(b *strings.Builder, r *Run) {
	if len(r.Shards) == 0 {
		return
	}
	var total uint64
	for i := range r.Shards {
		total += r.Shards[i].Primary
	}
	b.WriteString("<h4>Per-shard utilization</h4>\n<table>\n<tr><th>shard</th><th>primary</th><th>share %</th><th>execs</th><th>repl. writes</th><th>hedges</th><th>failovers</th><th>rejected</th><th>media err</th><th>util %</th><th>util</th></tr>\n")
	for i := range r.Shards {
		ss := &r.Shards[i]
		name := fmt.Sprintf("%d", ss.Shard)
		if ss.Faulted {
			name += " (faulted)"
		}
		share := 0.0
		if total > 0 {
			share = 100 * float64(ss.Primary) / float64(total)
		}
		width := 100 * ss.Utilization
		if width > 100 {
			width = 100
		}
		fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td>%.1f</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%.1f</td><td><div class=\"ubar\"><span style=\"width:%.1f%%\"></span></div></td></tr>\n",
			html.EscapeString(name), ss.Primary, share, ss.Executions,
			ss.ReplicaWrites, ss.Hedges, ss.Failovers,
			ss.Rejected, ss.MediaErrors, 100*ss.Utilization, width)
	}
	b.WriteString("</table>\n")
}

func runLabel(r *Run) string {
	if r.Workload != "" && r.Workload != r.Name {
		return r.Name + " / " + r.Workload
	}
	return r.Name
}

func writeRun(b *strings.Builder, r *Run) {
	esc := html.EscapeString
	fmt.Fprintf(b, "<h3>%s</h3>\n", esc(runLabel(r)))
	fmt.Fprintf(b, "<p class=\"meta\">%d requests in %.3f ms virtual time, %.0f ops/s",
		r.Requests, float64(r.ElapsedNs)/1e6, r.OpsPerSec)
	if r.OfferedOpsPerSec > 0 {
		fmt.Fprintf(b, " (open loop: %s arrivals offering %.0f ops/s, queue depth %d)",
			html.EscapeString(r.Arrivals), r.OfferedOpsPerSec, r.QueueDepth)
	}
	if r.ReadAmp > 0 {
		fmt.Fprintf(b, ", read amplification %.2f", r.ReadAmp)
	}
	if r.Rejected > 0 || r.Throttled > 0 || r.Lost > 0 {
		fmt.Fprintf(b, "; %d rejected, %d throttled, %d lost", r.Rejected, r.Throttled, r.Lost)
	}
	b.WriteString("</p>\n")

	writeShards(b, r)
	writeWaterfall(b, r)
	writeTail(b, r)
	writeLatencyHeat(b, r.Heat)
	writeResources(b, r.Resources)
}

// writeTail renders the run's slow-request forensics: the p99 blame
// composition (where the kept slowest requests' time went, by stage and
// concrete resource), then one waterfall bar per captured exemplar with
// per-span resource titles.
func writeTail(b *strings.Builder, r *Run) {
	esc := html.EscapeString
	if len(r.TailBlame) > 0 {
		fmt.Fprintf(b, "<h4>Tail blame (slowest %d requests)</h4>\n", r.TailKept)
		b.WriteString("<table>\n<tr><th>stage</th><th>resource</th><th>total (ms)</th><th>share %</th></tr>\n")
		for _, row := range r.TailBlame {
			res := row.Res
			if res == "" {
				res = "—"
			}
			fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td>%.3f</td><td>%.1f</td></tr>\n",
				esc(row.Stage), esc(res), float64(row.TotalNs)/1e6, row.SharePct)
		}
		b.WriteString("</table>\n")
	}
	if len(r.Exemplars) == 0 {
		return
	}
	b.WriteString("<h4>Slowest requests</h4>\n")
	for i := range r.Exemplars {
		e := &r.Exemplars[i]
		fmt.Fprintf(b, "<p class=\"meta\">#%d · seq %d · start %.3f ms · %.2f µs</p>\n<div class=\"bar\">",
			i+1, e.Seq, float64(e.StartNs)/1e6, e.LatencyUs)
		total := e.LatencyUs * 1e3 // ns
		for _, sp := range e.Spans {
			if total <= 0 {
				break
			}
			dur := float64(sp.EndNs - sp.StartNs)
			title := sp.Stage
			if sp.Res != "" {
				title += " @" + sp.Res
			}
			fmt.Fprintf(b, "<span style=\"width:%.3f%%;background:%s\" title=\"%s %.2f µs\"></span>",
				100*dur/total, stageColor(sp.Stage), esc(title), dur/1e3)
		}
		b.WriteString("</div>\n")
	}
}

// writeLatencyHeat renders the completion-time × latency heatmap as an
// SVG: x is virtual time since the measured phase began, y the latency
// ladder (slowest on top), cell darkness the completion count relative to
// the densest cell (log scale, so the sparse tail stays visible).
func writeLatencyHeat(b *strings.Builder, h *telemetry.HeatSnapshot) {
	if h == nil || h.Total == 0 {
		return
	}
	bins := 0
	var maxCount uint64
	for _, row := range h.Counts {
		if len(row) > bins {
			bins = len(row)
		}
		for _, c := range row {
			if c > maxCount {
				maxCount = c
			}
		}
	}
	if bins == 0 || maxCount == 0 {
		return
	}
	const (
		cellW, cellH = 6.0, 14.0
		padL, padT   = 70.0, 4.0
		padB         = 20.0
	)
	rows := len(h.Counts)
	w := padL + cellW*float64(bins) + 4
	ht := padT + cellH*float64(rows) + padB
	b.WriteString("<h4>Latency heatmap</h4>\n")
	fmt.Fprintf(b, "<p class=\"meta\">Completions per %.0f µs of virtual time × latency bucket; darker is more completions (log shade, max %d/cell).</p>\n",
		float64(h.BinNs)/1e3, maxCount)
	fmt.Fprintf(b, "<svg width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\" style=\"font:10px sans-serif\">\n", w, ht, w, ht)
	logMax := math.Log1p(float64(maxCount))
	for ri := range h.Counts {
		// Row 0 is the fastest bucket; draw it at the bottom.
		y := padT + cellH*float64(rows-1-ri)
		label := fmt.Sprintf("&ge; %g µs", h.BoundsUs[len(h.BoundsUs)-1])
		if ri < len(h.BoundsUs) {
			label = fmt.Sprintf("&lt; %g µs", h.BoundsUs[ri])
		}
		fmt.Fprintf(b, "<text x=\"%.1f\" y=\"%.1f\" text-anchor=\"end\">%s</text>\n", padL-4, y+cellH-4, label)
		for bi, c := range h.Counts[ri] {
			if c == 0 {
				continue
			}
			alpha := math.Log1p(float64(c)) / logMax
			fmt.Fprintf(b, "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" fill=\"rgba(31,119,180,%.2f)\"/>\n",
				padL+cellW*float64(bi), y, cellW, cellH, alpha)
		}
	}
	fmt.Fprintf(b, "<text x=\"%.1f\" y=\"%.1f\">0</text>\n", padL, ht-6)
	fmt.Fprintf(b, "<text x=\"%.1f\" y=\"%.1f\" text-anchor=\"end\">%.2f ms</text>\n",
		padL+cellW*float64(bins), ht-6, float64(h.BinNs)*float64(bins)/1e6)
	b.WriteString("</svg>\n")
}

// writeWaterfall renders the stage breakdown as a stacked bar (share of
// total attributed time) plus the numeric table.
func writeWaterfall(b *strings.Builder, r *Run) {
	if len(r.Stages) == 0 || r.StageNs <= 0 {
		return
	}
	b.WriteString("<h4>Stage waterfall</h4>\n<div class=\"bar\">")
	for _, s := range r.Stages {
		share := 100 * float64(s.TotalNs) / float64(r.StageNs)
		fmt.Fprintf(b, "<span style=\"width:%.3f%%;background:%s\" title=\"%s %.1f%%\"></span>",
			share, stageColor(s.Name), html.EscapeString(s.Name), share)
	}
	b.WriteString("</div>\n<div class=\"legend\">")
	for _, s := range r.Stages {
		fmt.Fprintf(b, "<span><i class=\"swatch\" style=\"background:%s\"></i>%s</span>",
			stageColor(s.Name), html.EscapeString(s.Name))
	}
	b.WriteString("</div>\n")
	b.WriteString("<table>\n<tr><th>stage</th><th>total (ms)</th><th>share %</th><th>reqs</th><th>mean (µs)</th><th>p99 (µs)</th><th>max (µs)</th></tr>\n")
	for _, s := range r.Stages {
		fmt.Fprintf(b, "<tr><td>%s</td><td>%.3f</td><td>%.1f</td><td>%d</td><td>%.2f</td><td>%.2f</td><td>%.2f</td></tr>\n",
			html.EscapeString(s.Name), float64(s.TotalNs)/1e6,
			100*float64(s.TotalNs)/float64(r.StageNs), s.Requests, s.MeanUs, s.P99Us, s.MaxUs)
	}
	fmt.Fprintf(b, "<tr><td>total</td><td>%.3f</td><td>100.0</td><td>%d</td><td></td><td></td><td></td></tr>\n",
		float64(r.StageNs)/1e6, r.Requests)
	b.WriteString("</table>\n")
}

// writeResources renders the utilization summary table (per-die rows
// folded away) and the binned-occupancy heatmap: one row per resource,
// one cell per virtual-time bin, shaded by the busy fraction of that bin.
// Per-die rows get their own collapsed heatmap.
func writeResources(b *strings.Builder, s *resource.Snapshot) {
	if s == nil || len(s.Resources) == 0 {
		return
	}
	b.WriteString("<h4>Resource utilization</h4>\n<table>\n<tr><th>resource</th><th>busy (ms)</th><th>util %</th><th>ops</th></tr>\n")
	for _, r := range s.Resources {
		if strings.Contains(r.Name, ".w") {
			continue
		}
		fmt.Fprintf(b, "<tr><td>%s</td><td>%.3f</td><td>%.1f</td><td>%d</td></tr>\n",
			html.EscapeString(r.Name), float64(r.BusyNs)/1e6, 100*r.Utilization, r.Ops)
	}
	b.WriteString("</table>\n")

	if s.BinNs <= 0 {
		return
	}
	fmt.Fprintf(b, "<p class=\"meta\">Occupancy heatmap: one cell per %.0f µs of virtual time; darker is busier.</p>\n",
		float64(s.BinNs)/1e3)
	writeHeatmap(b, s, false)
	b.WriteString("<details><summary>Per-die detail (channel × way)</summary>\n")
	writeHeatmap(b, s, true)
	b.WriteString("</details>\n")
}

func writeHeatmap(b *strings.Builder, s *resource.Snapshot, dies bool) {
	b.WriteString("<table class=\"heat\">\n")
	for _, r := range s.Resources {
		if strings.Contains(r.Name, ".w") != dies {
			continue
		}
		fmt.Fprintf(b, "<tr><td class=\"rn\">%s</td>", html.EscapeString(r.Name))
		for i, busy := range r.Bins {
			frac := float64(busy) / float64(s.BinNs)
			if frac > 1 {
				frac = 1
			}
			// Idle bins stay bare cells; the per-die detail drops the hover
			// titles too. Both keep large reports small.
			switch {
			case frac == 0:
				b.WriteString("<td></td>")
			case dies:
				fmt.Fprintf(b, "<td style=\"background:rgba(31,119,180,%.2f)\"></td>", frac)
			default:
				fmt.Fprintf(b, "<td style=\"background:rgba(31,119,180,%.2f)\" title=\"%s bin %d: %.0f%%\"></td>",
					frac, html.EscapeString(r.Name), i, 100*frac)
			}
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</table>\n")
}

package timeline

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// Options configures timeline recording for a world/session.
type Options struct {
	// Capacity is the per-rank ring-buffer size in events
	// (<= 0 selects DefaultCapacity).
	Capacity int
}

// Timeline aggregates one Recorder per rank of a world, plus optional
// named auxiliary tracks (e.g. the fault injector's event log, which
// belongs to the fabric rather than to any rank).
type Timeline struct {
	recs       []*Recorder
	extras     []*Recorder
	extraNames []string
}

// New builds a Timeline with one enabled Recorder per rank.
func New(ranks, capacity int) *Timeline {
	t := &Timeline{recs: make([]*Recorder, ranks)}
	for i := range t.recs {
		t.recs[i] = NewRecorder(capacity)
	}
	return t
}

// Rank returns rank i's recorder. A nil Timeline (tracing disabled) or an
// out-of-range rank yields a nil — i.e. disabled — Recorder.
func (t *Timeline) Rank(i int) *Recorder {
	if t == nil || i < 0 || i >= len(t.recs) {
		return nil
	}
	return t.recs[i]
}

// Ranks reports the number of ranks.
func (t *Timeline) Ranks() int {
	if t == nil {
		return 0
	}
	return len(t.recs)
}

// ExtraTrack returns the named auxiliary recorder, creating it on first
// use. Nil Timeline yields a nil (disabled) Recorder. The recorder's rank
// is -1; it renders as its own process named after the track.
func (t *Timeline) ExtraTrack(name string, capacity int) *Recorder {
	if t == nil {
		return nil
	}
	for i, n := range t.extraNames {
		if n == name {
			return t.extras[i]
		}
	}
	r := NewRecorder(capacity)
	t.extras = append(t.extras, r)
	t.extraNames = append(t.extraNames, name)
	return r
}

// WriteChrome emits the whole timeline as Chrome trace-event JSON
// (chrome://tracing, Perfetto): one process per rank, one thread per
// sub-track (cpu, sched, net, GPU streams). Output is deterministic —
// byte-identical across runs of the same simulation.
func (t *Timeline) WriteChrome(w io.Writer) error {
	c := &Collector{}
	c.Add("", t)
	return c.WriteChrome(w)
}

// Collector merges timelines from several worlds (a benchmark sweep runs one
// world per configuration) into a single trace, assigning globally unique
// pids and labeling each world's ranks with its label.
type Collector struct {
	labels []string
	tls    []*Timeline
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Add registers a world's timeline under label. Nil timelines are ignored.
func (c *Collector) Add(label string, t *Timeline) {
	if t == nil {
		return
	}
	c.labels = append(c.labels, label)
	c.tls = append(c.tls, t)
}

// Empty reports whether anything was collected.
func (c *Collector) Empty() bool { return len(c.tls) == 0 }

func procName(label string, rank int) string {
	if label == "" {
		return fmt.Sprintf("rank%d", rank)
	}
	return fmt.Sprintf("%s/rank%d", label, rank)
}

// trackOrder lists a recorder's sub-tracks in order of first appearance,
// with "" (the rank's CPU thread) always first.
func trackOrder(rec *Recorder) []string {
	order := []string{""}
	seen := map[string]bool{"": true}
	for _, ev := range rec.Events() {
		if !seen[ev.Track] {
			seen[ev.Track] = true
			order = append(order, ev.Track)
		}
	}
	return order
}

// usFmt renders virtual ns as trace-event microseconds with ns precision.
func usFmt(ns int64) string {
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

// WriteChrome emits all collected timelines as one Chrome trace-event JSON
// document. Deterministic: iteration follows insertion and event order only.
func (c *Collector) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")
	first := true
	emit := func(s string) {
		if first {
			bw.WriteString("\n")
			first = false
		} else {
			bw.WriteString(",\n")
		}
		bw.WriteString(s)
	}
	pid := 0
	emitRec := func(rec *Recorder, pname string) {
		tracks := trackOrder(rec)
		tid := make(map[string]int, len(tracks))
		emit(fmt.Sprintf(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`,
			pid, strconv.Quote(pname)))
		emit(fmt.Sprintf(`{"name":"process_sort_index","ph":"M","pid":%d,"tid":0,"args":{"sort_index":%d}}`,
			pid, pid))
		for i, tr := range tracks {
			tid[tr] = i
			name := tr
			if name == "" {
				name = "cpu"
			}
			emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
				pid, i, strconv.Quote(name)))
			emit(fmt.Sprintf(`{"name":"thread_sort_index","ph":"M","pid":%d,"tid":%d,"args":{"sort_index":%d}}`,
				pid, i, i))
		}
		for _, ev := range rec.Events() {
			var args string
			if ev.Cost != CostNone {
				args = `"cost":` + strconv.Quote(ev.Cost.String())
			}
			for _, a := range ev.Args {
				if args != "" {
					args += ","
				}
				args += strconv.Quote(a.Key) + ":" + strconv.Quote(a.Val)
			}
			if args != "" {
				args = `,"args":{` + args + `}`
			}
			if ev.Dur == 0 {
				emit(fmt.Sprintf(`{"name":%s,"cat":"%s","ph":"i","s":"t","pid":%d,"tid":%d,"ts":%s%s}`,
					strconv.Quote(ev.Name), ev.Layer, pid, tid[ev.Track], usFmt(ev.Start), args))
				continue
			}
			emit(fmt.Sprintf(`{"name":%s,"cat":"%s","ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s%s}`,
				strconv.Quote(ev.Name), ev.Layer, pid, tid[ev.Track], usFmt(ev.Start), usFmt(ev.Dur), args))
		}
		pid++
	}
	for wi, tl := range c.tls {
		for ri := 0; ri < tl.Ranks(); ri++ {
			emitRec(tl.Rank(ri), procName(c.labels[wi], ri))
		}
		for ei, rec := range tl.extras {
			emitRec(rec, extraName(c.labels[wi], tl.extraNames[ei]))
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// extraName labels an auxiliary track's process.
func extraName(label, track string) string {
	if label == "" {
		return track
	}
	return label + "/" + track
}

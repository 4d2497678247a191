// Command tracecheck validates a Chrome trace-event JSON file as emitted
// by ddtbench/halo3d/fusiontune -trace: it must parse, carry at least one
// duration event, and every event must satisfy the trace-event contract
// (known phase, non-negative timestamps and durations, named). A trace
// whose recorder dropped events (a timeline.DroppedRecord metadata record)
// fails too: its oldest events are missing. Used by CI as a smoke check;
// exits non-zero with a diagnostic on the first violation.
//
// Usage:
//
//	tracecheck [-require-layer name[,name...]] trace.json
//
// -require-layer additionally demands at least one span event from each
// named timeline layer (the event's "cat" field): CI uses it to prove
// that the Fig. 8 trace carries the sim, gpu, mpi and fusion layers, and
// that the same trace under a fault plan carries the fault layer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/timeline"
)

type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	Ts   float64         `json:"ts"`
	Dur  float64         `json:"dur"`
	Args json.RawMessage `json:"args"`
}

func check(path string, requireLayers []string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return fmt.Errorf("%s: not valid JSON: %w", path, err)
	}
	if len(tf.TraceEvents) == 0 {
		return fmt.Errorf("%s: no traceEvents", path)
	}
	var spans, metas int
	layers := make(map[string]int)
	for i, e := range tf.TraceEvents {
		if e.Name == "" {
			return fmt.Errorf("%s: event %d has no name", path, i)
		}
		switch e.Ph {
		case "X":
			spans++
			layers[e.Cat]++
			if e.Ts < 0 || e.Dur < 0 {
				return fmt.Errorf("%s: event %d (%s): negative ts/dur", path, i, e.Name)
			}
		case "i":
			spans++
			layers[e.Cat]++
			if e.Ts < 0 {
				return fmt.Errorf("%s: event %d (%s): negative ts", path, i, e.Name)
			}
		case "M":
			metas++
			if e.Name == timeline.DroppedRecord {
				return fmt.Errorf("%s: event %d: pid %d dropped events %s (ring capacity too small)", path, i, e.Pid, e.Args)
			}
		default:
			return fmt.Errorf("%s: event %d (%s): unknown phase %q", path, i, e.Name, e.Ph)
		}
	}
	if spans == 0 {
		return fmt.Errorf("%s: only metadata events, no spans", path)
	}
	for _, want := range requireLayers {
		if layers[want] == 0 {
			have := make([]string, 0, len(layers))
			for l := range layers {
				if l != "" {
					have = append(have, l)
				}
			}
			return fmt.Errorf("%s: no events from required layer %q (have: %s)",
				path, want, strings.Join(have, ", "))
		}
	}
	fmt.Printf("%s: OK (%d span/instant events, %d metadata events)\n", path, spans, metas)
	return nil
}

func main() {
	requireLayer := flag.String("require-layer", "", "comma-separated timeline layers that must each contribute at least one span")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-require-layer name[,name...]] <trace.json>")
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	var layers []string
	if *requireLayer != "" {
		layers = strings.Split(*requireLayer, ",")
	}
	if err := check(flag.Arg(0), layers); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
}

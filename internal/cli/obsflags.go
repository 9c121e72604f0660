package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"slotsel/internal/obs"
)

// obsFlags bundles the observability surface shared by slotfind and slotsim:
// -stats, -trace and -pprof. Each tool supplies its own stats sink (slotfind
// prints raw counters, slotsim aggregates distributions); the trace sink and
// the pprof server are common.
type obsFlags struct {
	stats bool
	trace string
	pprof string

	traceCap int // span capacity of the -trace ring
	name     string
	stderr   io.Writer
	tr       *obs.Trace
	stop     func() error
}

// registerObsFlags declares the three observability flags on fs.
func registerObsFlags(fs *flag.FlagSet) *obsFlags {
	o := &obsFlags{traceCap: obs.DefaultTraceCapacity}
	fs.BoolVar(&o.stats, "stats", false, "print instrumentation counters after the run")
	fs.StringVar(&o.trace, "trace", "", "write a Chrome trace_event JSON timeline to this `file` (load in chrome://tracing or ui.perfetto.dev)")
	fs.StringVar(&o.pprof, "pprof", "", "serve net/http/pprof on this `address` (e.g. localhost:0) while the tool runs")
	return o
}

// setup starts the pprof server when requested and combines the tool's stats
// sink with the trace sink. It returns nil when no sink is enabled, so the
// hot paths skip instrumentation entirely.
func (o *obsFlags) setup(name string, statsSink obs.Collector, stderr io.Writer) (obs.Collector, error) {
	o.name, o.stderr = name, stderr
	var cols []obs.Collector
	if o.stats {
		cols = append(cols, statsSink)
	}
	if o.trace != "" {
		o.tr = obs.NewTrace(o.traceCap)
		cols = append(cols, o.tr)
	}
	if o.pprof != "" {
		addr, stop, err := obs.ServePprof(o.pprof)
		if err != nil {
			return nil, err
		}
		o.stop = stop
		fmt.Fprintf(stderr, "%s: pprof listening on http://%s/debug/pprof/\n", name, addr)
	}
	return obs.Combine(cols...), nil
}

// finish writes the trace file when requested and stops the pprof server.
// A trace whose ring overflowed is written all the same, and a notice on
// stderr says how many of its earliest spans are missing. The caller renders
// its own stats sink.
func (o *obsFlags) finish() error {
	if o.stop != nil {
		defer o.stop()
	}
	if o.tr == nil {
		return nil
	}
	f, err := os.Create(o.trace)
	if err != nil {
		return err
	}
	if err := o.tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if n := o.tr.Dropped(); n > 0 {
		fmt.Fprintf(o.stderr, "%s: the trace ring holds %d spans: %d earlier spans were dropped from %s\n",
			o.name, o.traceCap, n, o.trace)
	}
	return nil
}

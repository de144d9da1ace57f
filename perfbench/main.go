// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the public facade (rebeca.NewLive,
// rebeca.OpenWAL) or the simulator (internal/sim's Scenario), checks every
// delivery against an oracle, and prints each end-to-end metric by name
// with its unit. With -trace 1 it additionally runs the workload traced and
// prints the per-layer metrics. The last line of standard output is a JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -workload stream -seed 1 -seconds 25 -trace 0
//
// See README.md for the workloads, the metrics and what each per-layer
// metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"rebeca"
)

const (
	// setupRepeats is how often a run builds its deployment; setup_s is
	// the median, and only the last build is measured.
	setupRepeats = 5
	// drainTimeout bounds the wait for owed notes after the last publish;
	// whatever is still missing then counts as lost.
	drainTimeout = 60 * time.Second
	// keptNotes caps the generated notes kept for the layer replays.
	keptNotes = 20000
	// The latency median is taken per block of consecutive samples and the
	// lower quartile over the blocks is reported (blockQuantile); a block
	// holds at least latencyBlockMin samples unless the workload sets its
	// own minimum.
	latencyBlocks   = 16
	latencyBlockMin = 100
)

// env is one run of one workload.
type env struct {
	seed    int64
	seconds float64
	dir     string    // scratch directory inside the checkout
	epoch   time.Time // time base of receipts and spans
	rec     *recorder // nil when untraced
	kept    []map[string]rebeca.Value
}

// keepNote keeps a generated note for the layer replays.
func (e *env) keepNote(attrs map[string]rebeca.Value) {
	if e.rec != nil && len(e.kept) < keptNotes {
		e.kept = append(e.kept, attrs)
	}
}

// outcome is what a workload measured.
type outcome struct {
	setups     []time.Duration
	throughput float64   // notes per second
	latency    []float64 // ms, the workload's per-event delay samples
	// latencyBlockMin, when set, is the fewest latency samples per block.
	latencyBlockMin int
	// cpuBlocks, when set, is the CPU µs per delivered note of each block
	// of the measured phase, in time order; cpu_per_note_us is their lower
	// quartile rather than the whole phase's ratio.
	cpuBlocks []float64
	cost      phaseCost // the measured phase
	delivered int       // distinct notes delivered in the measured phase
	verdict   verdict
	attempted int
	late      []float64 // generator lateness, ms
	notes     []string  // human-readable detail lines
	extra     []namedValue

	// Inputs for the traced run's layer replays.
	delivery []rebeca.NotificationID // application receipts in order
	filters  []rebeca.Filter         // the workload's subscriptions
	// timed, when set, restricts the transit spans (wire.*, client.egress)
	// to the notes the latency samples come from.
	timed  *owedSet
	layers map[string]float64 // layer metrics the workload measured itself
}

type namedValue struct {
	name, unit string
	value      float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type workload struct {
	name string
	run  func(*env) (*outcome, error)
}

var workloads = []workload{
	{"stream", runStream},
	{"roam", runRoam},
	{"durable", runDurable},
	{"sim", runSim},
}

func main() {
	name := flag.String("workload", "", "workload to run, or all")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 25, "measured time per run")
	trace := flag.Int("trace", 0, "1: also run traced and report the per-layer metrics")
	dir := flag.String("dir", ".bench_build", "scratch directory (WAL segments, span files)")
	flag.Parse()
	var selected []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for i := range selected {
		res, err := run(&selected[i], *seed, *seconds, *trace == 1, *dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		b, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	}
}

func run(w *workload, seed int64, seconds float64, traced bool, dir string) (*result, error) {
	e := &env{seed: seed, seconds: seconds, dir: dir, epoch: time.Now()}
	out, err := w.run(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	e2e := endToEnd(out)
	printRun(w.name, "untraced", out, e2e)
	res := &result{
		Correct:   out.verdict.failed() == 0,
		Attempted: out.attempted,
		Failed:    out.verdict.failed(),
		Metrics:   e2e,
	}
	if !traced {
		return res, nil
	}
	te := &env{seed: seed, seconds: seconds, dir: dir, epoch: time.Now()}
	te.rec = newRecorder(te.epoch)
	tout, err := w.run(te)
	if err != nil {
		return nil, fmt.Errorf("%s traced: %w", w.name, err)
	}
	printRun(w.name, "traced", tout, endToEnd(tout))
	spans := te.rec.snapshot()
	link(spans)
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Printf("%s traced: %d spans written to %s\n", w.name, len(spans), path)
	layers, err := perLayer(te, tout, spans)
	if err != nil {
		return nil, err
	}
	// Measured without tracing.
	for _, x := range out.extra {
		layers[x.name] = x.value
	}
	layers["e2e.latency_p90_ms"] = quantile(out.latency, 0.9)
	layers["e2e.latency_p99_ms"] = quantile(out.latency, 0.99)
	if base := perNote(out.cost.cpu, out.delivered); base > 0 {
		layers["trace.overhead_frac"] = perNote(tout.cost.cpu, tout.delivered)/base - 1
	}
	res.Correct = res.Correct && tout.verdict.failed() == 0
	res.Attempted += tout.attempted
	res.Failed += tout.verdict.failed()
	res.Metrics = make(map[string]metric, len(layerUnits))
	for _, name := range sortedKeys(layerUnits) {
		res.Metrics[name] = metric{Value: layers[name], Unit: layerUnits[name]}
		fmt.Printf("  %-32s %14.4f %s\n", name, layers[name], layerUnits[name])
	}
	return res, nil
}

// waitCount polls c every poll until it reaches n or the deadline passes,
// sampling m (when set) meanwhile; it reports whether n was reached.
func waitCount(c *atomic.Int64, n int64, deadline time.Time, poll time.Duration, m *meter) bool {
	for c.Load() < n {
		if time.Now().After(deadline) {
			return false
		}
		if m != nil {
			m.sample()
		}
		time.Sleep(poll)
	}
	return true
}

func perNote(d time.Duration, n int) float64 {
	if n <= 0 {
		return 0
	}
	return us(d) / float64(n)
}

// endToEnd derives the end-to-end metrics from a workload's outcome.
func endToEnd(o *outcome) map[string]metric {
	setups := make([]float64, len(o.setups))
	for i, d := range o.setups {
		setups[i] = d.Seconds()
	}
	blockMin := latencyBlockMin
	if o.latencyBlockMin > 0 {
		blockMin = o.latencyBlockMin
	}
	cpu := perNote(o.cost.cpu, o.delivered)
	if len(o.cpuBlocks) >= 2 {
		cpu = quantile(o.cpuBlocks, calmLow)
	}
	return map[string]metric{
		"setup_s":         {quantile(setups, 0.5), "s"},
		"throughput_nps":  {o.throughput, "1/s"},
		"latency_p50_ms":  {blockQuantile(o.latency, 0.5, latencyBlocks, blockMin), "ms"},
		"cpu_per_note_us": {cpu, "us"},
		"allocs_per_note": {float64(o.cost.allocs) / float64(max(o.delivered, 1)), "count"},
		"mem_peak_mb":     {o.cost.peakMB, "MB"},
	}
}

func printRun(name, mode string, o *outcome, e2e map[string]metric) {
	fmt.Printf("%s %s: oracle %s -> %s\n", name, mode, o.verdict, map[bool]string{true: "PASS", false: "FAIL"}[o.verdict.failed() == 0])
	for _, n := range o.notes {
		fmt.Printf("  %s\n", n)
	}
	for _, k := range sortedKeys(e2e) {
		fmt.Printf("  %-32s %14.4f %s\n", k, e2e[k].Value, e2e[k].Unit)
	}
	fmt.Printf("  %-32s %14d (latency samples; whole run: p50 %.4f, p90 %.4f, p99 %.4f ms)\n", "n", len(o.latency),
		quantile(o.latency, 0.5), quantile(o.latency, 0.9), quantile(o.latency, 0.99))
	for _, x := range o.extra {
		fmt.Printf("  %-32s %14.4f %s\n", x.name, x.value, x.unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

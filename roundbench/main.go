// Command roundbench is the end-to-end round benchmark: it builds the
// system through the public functions of mzqos/internal/*, drives it with
// inputs generated from a seed, checks the outputs, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
// Usage (from the repository root):
//
//	bash roundbench/run.sh --workload steady|churn|montecarlo --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the traced variant and prints the per-layer metrics. README.md in this
// directory documents every metric and workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
}

// metric is one reported number. Base names the count or sample size the
// value was computed from, so every rate and percentile carries its base.
type metric struct {
	name  string
	unit  string
	value float64
	base  string
}

// result is the outcome of one run.
type result struct {
	// digest hashes every simulated outcome of the fixed horizon.
	digest uint64
	// horizon names what the digest and the simulated metrics cover.
	horizon string
	// attempted counts operations: attempted opens (or admission
	// queries) plus fragments due (or simulated rounds). refused and
	// glitched are the operations the service turned away or delivered
	// late or never.
	attempted, refused, glitched int64
	metrics                      []metric
	// notes are extra human-readable lines (span summaries, ladder rows).
	notes []string
}

func (r *result) add(name, unit string, value float64, base string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, base: base})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// errCheck marks a failed correctness check: the run printed no metrics
// as a success.
var errCheck = errors.New("correctness check failed")

// workloads maps a workload name to its untraced and traced runs. The
// traced run gives its untraced phase a share of --seconds, and that
// phase runs unitsPerSecond rounds (sweep batches on montecarlo) per
// second; tracedMinSeconds derives from them.
var workloads = map[string]struct {
	plain, traced  func(options) (*result, error)
	tracedShare    float64
	unitsPerSecond float64
}{
	"steady":     {runSteady, runSteadyTraced, 1.0 / 3, steadyRoundsPerSecond},
	"churn":      {runChurn, runChurnTraced, 1.0 / 2, churnRoundsPerSecond},
	"montecarlo": {runMonteCarlo, runMonteCarloTraced, 1.0 / 2, mcBatchesPerSecond},
}

// tracedMinSeconds is the shortest --seconds whose traced run leaves its
// untraced phase enough rounds for the p99 the traced run reports.
func tracedMinSeconds(workload string) int {
	w := workloads[workload]
	return int(math.Ceil(tailSamples / (w.tracedShare * w.unitsPerSecond)))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "roundbench: %v\n", err)
		return 2
	}
	w := workloads[opts.workload]
	fn := w.plain
	if opts.traced {
		fn = w.traced
	}
	res, err := fn(opts)
	if err != nil {
		fmt.Fprintf(stderr, "roundbench: %s: %v\n", opts.workload, err)
		if errors.Is(err, errCheck) {
			fmt.Fprintln(stdout, `{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
		}
		return 1
	}
	if err := res.print(stdout, opts); err != nil {
		fmt.Fprintf(stderr, "roundbench: %v\n", err)
		return 1
	}
	return 0
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("roundbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts options
	var seed int64
	var trace int
	fs.StringVar(&opts.workload, "workload", "steady", "workload: steady, churn or montecarlo")
	fs.Int64Var(&seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&opts.seconds, "seconds", 30, "measured host seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return opts, err
	}
	if _, ok := workloads[opts.workload]; !ok {
		return opts, fmt.Errorf("unknown workload %q", opts.workload)
	}
	if opts.seconds < 1 || opts.seconds > 120 {
		return opts, fmt.Errorf("--seconds %d outside [1, 120]", opts.seconds)
	}
	if trace != 0 && trace != 1 {
		return opts, fmt.Errorf("--trace %d must be 0 or 1", trace)
	}
	if m := tracedMinSeconds(opts.workload); trace == 1 && opts.seconds < m {
		return opts, fmt.Errorf("--trace 1 on %s needs --seconds >= %d for its p99 figures", opts.workload, m)
	}
	opts.seed = uint64(seed)
	opts.traced = trace == 1
	return opts, nil
}

// print writes the human-readable report and then the JSON result line.
func (r *result) print(w io.Writer, opts options) error {
	mode := "untraced"
	if opts.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "roundbench %s seed=%d seconds=%d %s\n", opts.workload, opts.seed, opts.seconds, mode)
	fmt.Fprintf(w, "digest %016x over %s\n", r.digest, r.horizon)
	fmt.Fprintf(w, "operations attempted=%d failed=%d (refused=%d glitched=%d)\n",
		r.attempted, r.refused+r.glitched, r.refused, r.glitched)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	slices.SortFunc(r.metrics, func(a, b metric) int { return strings.Compare(a.name, b.name) })
	out := make(map[string]jsonMetric, len(r.metrics))
	for _, m := range r.metrics {
		if _, dup := out[m.name]; dup {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		out[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		fmt.Fprintf(w, "metric %-34s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.base)
	}
	// Refusals and glitches are the service's designed answers to
	// overload and faults, measured by block_rate and glitch_rate. The
	// JSON failed count is of calls that returned an error, and any such
	// call aborts the run, so a printed result has none.
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{true, r.attempted, 0, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, strings.TrimSpace(string(line)))
	return err
}

// Command gnnbench is the repository's benchmark: it trains GNNDrive on
// one of four fixed workloads and prints every metric by name with its
// unit, checking the program's outputs as it goes.
//
//	gnnbench --workload extract-file --seed 1 --seconds 12 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// prints the per-layer metrics of a traced run (timing backend wrapper,
// counting IO gate, engine tracer) and of an untraced reference run of
// the same number of epochs. Each
// training run happens in a child process of its own, so its resident
// high-water mark is that run's alone. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// deadline bounds a whole invocation; children are killed and waited for
// when it passes.
const deadline = 170 * time.Second

// An untraced invocation times extra set-ups beside the run's own, so
// that setup_s is a median: at least minSetups in all, and more while
// they have taken less than setupBudget, up to maxSetups.
const (
	minSetups   = 7
	maxSetups   = 21
	setupBudget = 1500 * time.Millisecond
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type flags struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	child     bool
	traced    bool
	dir       string
	container string
	traceFile string
	epochs    int
}

func parseFlags(args []string, stderr io.Writer) (flags, error) {
	var f flags
	fs := flag.NewFlagSet("gnnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&f.workload, "workload", "", "workload name")
	fs.Uint64Var(&f.seed, "seed", 1, "seed for the generated dataset and the engine")
	fs.Float64Var(&f.seconds, "seconds", 25, "seconds of training to measure")
	fs.IntVar(&f.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fs.BoolVar(&f.child, "child", false, "internal: run one training process and print its raw result")
	fs.BoolVar(&f.traced, "traced", false, "internal: install the probes in this child run")
	fs.StringVar(&f.dir, "dir", "", "internal: the child's working directory")
	fs.StringVar(&f.container, "container", "", "internal: the dataset container")
	fs.StringVar(&f.traceFile, "trace-file", "", "internal: where a traced child writes its spans")
	fs.IntVar(&f.epochs, "epochs", 0, "internal: train exactly this many epochs")
	if err := fs.Parse(args); err != nil {
		return f, err
	}
	if _, ok := lookupWorkload(f.workload); !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return f, fmt.Errorf("unknown workload %q (want one of %v)", f.workload, names)
	}
	if f.trace != 0 && f.trace != 1 {
		return f, fmt.Errorf("--trace must be 0 or 1, not %d", f.trace)
	}
	if f.seconds <= 0 {
		return f, errors.New("--seconds must be positive")
	}
	return f, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	f, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "gnnbench:", err)
		return 2
	}
	w, _ := lookupWorkload(f.workload)
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	if f.child {
		res := runWorkload(ctx, w, f.seed, f.seconds, f.epochs, f.traced, f.dir, f.container, f.traceFile)
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintln(stderr, "gnnbench:", err)
			return 1
		}
		return 0
	}

	correct, err := bench(ctx, f, w, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "gnnbench:", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// bench generates the seed's dataset, makes the runs --trace asks for,
// and prints the report and the result line. It fails without a result
// line when a run cannot be made at all.
func bench(ctx context.Context, f flags, w workload, stdout, stderr io.Writer) (bool, error) {
	root, err := os.Getwd()
	if err != nil {
		return false, err
	}
	base := filepath.Join(root, ".bench_build", "gnnbench")
	dir := filepath.Join(base, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	env := stampEnv(root)
	container := filepath.Join(dir, "dataset.gnnd")
	if err := makeContainer(f.seed, container); err != nil {
		return false, err
	}

	var (
		values   map[string]float64
		defs     []metricDef
		runs     []childResult
		problems []string
	)
	if f.trace == 0 {
		defs = endToEnd
		u, err := spawn(ctx, f, false, dir, container, "", 0, stderr)
		if err != nil {
			return false, err
		}
		runs = []childResult{u}
		setups := []float64{u.SetupS}
		var spent float64
		for len(u.Problems) == 0 && len(setups) < maxSetups &&
			(len(setups) < minSetups || spent < setupBudget.Seconds()) {
			s, err := timeSetup(w, f.seed, dir, container)
			if err != nil {
				problems = append(problems, err.Error())
				break
			}
			setups = append(setups, s)
			spent += s
		}
		values = endToEndValues(w, u, setups)
	} else {
		defs = perLayer
		traceDir := filepath.Join(base, "traces")
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return false, err
		}
		traceFile := filepath.Join(traceDir, w.name+".trace.json.gz")
		u, err := spawn(ctx, f, false, dir, container, "", w.traceEpochs, stderr)
		if err != nil {
			return false, err
		}
		t, err := spawn(ctx, f, true, dir, container, traceFile, w.traceEpochs, stderr)
		if err != nil {
			return false, err
		}
		runs = []childResult{u, t}
		values = perLayerValues(u, t)
		fmt.Fprintf(stdout, "trace file: %s\n", traceFile)
	}
	var out result
	for _, r := range runs {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		problems = append(problems, r.Problems...)
		env.setRun(r)
	}
	metrics, err := collect(defs, values)
	if err != nil {
		problems = append(problems, err.Error())
	}
	out.Metrics = metrics
	out.Correct = len(problems) == 0 && out.Failed == 0
	report(stdout, w, f, env, runs, values, defs)
	for _, p := range problems {
		fmt.Fprintln(stdout, "FAIL:", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(stdout, string(line))
	return out.Correct, nil
}

// spawn runs one training run in a child process and returns its result.
// A positive epochs fixes the run's epoch count.
func spawn(ctx context.Context, f flags, traced bool, dir, container, traceFile string, epochs int, stderr io.Writer) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	args := []string{"-child", "-workload", f.workload,
		"-seed", strconv.FormatUint(f.seed, 10),
		"-seconds", strconv.FormatFloat(f.seconds, 'f', -1, 64),
		"-epochs", strconv.Itoa(epochs),
		"-traced=" + strconv.FormatBool(traced),
		"-dir", dir, "-container", container, "-trace-file", traceFile}
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("run process: %w", err)
	}
	var res childResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return childResult{}, fmt.Errorf("run process result: %w", err)
	}
	return res, nil
}

// timeSetup sets the workload up once more, untraced, and tears it down.
func timeSetup(w workload, seed uint64, dir, container string) (float64, error) {
	start := time.Now()
	r, err := w.setup(container, dir, w.options(seed, filepath.Join(dir, "ckpt-setup")), nil)
	if err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	d := time.Since(start).Seconds()
	r.close()
	return d, nil
}

// report prints the human-readable part of a result: the environment
// stamp, per-epoch times, and every metric with its unit.
func report(out io.Writer, w workload, f flags, env envStamp, runs []childResult, values map[string]float64, defs []metricDef) {
	stamp, _ := json.Marshal(env)
	fmt.Fprintf(out, "workload %s seed %d trace %d\n", w.name, f.seed, f.trace)
	fmt.Fprintf(out, "env %s\n", stamp)
	for i, r := range runs {
		kind := "untraced"
		if i == 1 {
			kind = "traced"
		}
		fmt.Fprintf(out, "%s run: setup %.3fs, epochs", kind, r.SetupS)
		for _, e := range r.Epochs {
			fmt.Fprintf(out, " %.3fs", e.Wall)
		}
		fmt.Fprintf(out, ", peak rss %d kB\n", r.PeakRSSKB)
		if w.realTrain {
			fmt.Fprintf(out, "%s run: val_acc %.4f, last loss %.4f\n", kind, r.ValAcc, r.Layers["loss"])
		}
		for _, lt := range r.SelfTimes {
			fmt.Fprintf(out, "  span %-22s %8d spans %10.3fs total %10.3fs self\n", lt.Name, lt.Count, lt.Total, lt.Self)
		}
	}
	names := make([]string, 0, len(defs))
	units := map[string]string{}
	for _, d := range defs {
		names = append(names, d.name)
		units[d.name] = d.unit
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", n, values[n], units[n])
	}
}

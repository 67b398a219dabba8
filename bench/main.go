// Command bench is the end-to-end benchmark of the carbon engine. It drives
// five workloads through the system's public surfaces — the explore
// library, the HTTP service, the durable job tier and the replica fleet —
// measures every layer from outside by timing calls into public functions
// and handlers, and checks every output against an oracle.
//
//	bash bench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -seed 1 [-runs 5] [-out set.json] [-trace 1]
//	bash bench/run.sh compare A.json B.json
//
// With -workload it runs that one workload in this process and prints one
// "workload metric value unit" line per metric, then one JSON result line.
// Without it, it runs every workload, each in a fresh child process.
// BENCHMARK.json at the repository root names the workloads, metrics and
// units; bench/README.md is the catalogue.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// spec is BENCHMARK.json: the one source of workload and metric names.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	runs     int
	out      string
	// tamper corrupts the first output each oracle checks; only the smoke
	// test sets it, to prove a wrong byte fails the run.
	tamper bool
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		fatal(err)
	}
	cfg, err := parseFlags(os.Args[1:], sp)
	if err != nil {
		fatal(err)
	}
	if cfg.workload == "" {
		if err := runAll(os.Stdout, root, sp, cfg); err != nil {
			fatal(err)
		}
		return
	}
	res, err := runOne(os.Stdout, root, sp, cfg)
	if err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func parseFlags(args []string, sp *spec) (config, error) {
	cfg := config{}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "run only this workload, in this process")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", float64(sp.RunSeconds), "length of the timed phase")
	fs.BoolVar(&cfg.trace, "trace", false, "report per-layer metrics from a traced run")
	fs.Float64Var(&cfg.scale, "scale", 1, "input-size factor (the smoke test uses 0.02)")
	fs.IntVar(&cfg.runs, "runs", 1, "runs of every workload (without -workload)")
	fs.StringVar(&cfg.out, "out", "", "write the runs to this set file (without -workload)")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if cfg.workload != "" && workloads[cfg.workload] == nil {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 || cfg.scale <= 0 || cfg.runs < 1 {
		return cfg, errors.New("-seconds and -scale must be positive, -runs at least 1")
	}
	return cfg, nil
}

// joinTraceValue turns "-trace 0|1" into "-trace=0|1", so -trace works both
// as a bare switch and with the value form the benchmark driver passes.
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) &&
			(args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

// repoRoot walks up from the working directory to the directory holding
// BENCHMARK.json, so the benchmark runs from the root and from bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &sp, nil
}

// runOne runs one workload in this process and prints its metrics. A
// traced run first measures half the timed phase untraced, then half
// traced: the per-layer metrics come from the traced half and
// trace.overhead_ratio compares the two halves' median operation latency.
func runOne(w io.Writer, root string, sp *spec, cfg config) (result, error) {
	run := workloads[cfg.workload]
	length := time.Duration(cfg.seconds * float64(time.Second))
	var (
		e    *env
		vals map[string]float64
		want []specMetric
	)
	if !cfg.trace {
		e = newEnv(root, cfg, length, nil)
		if err := run(e); err != nil {
			return result{}, fmt.Errorf("%s: %w", cfg.workload, err)
		}
		vals, want = e.endToEnd(), sp.EndToEnd
	} else {
		plain := newEnv(root, cfg, length/2, nil)
		if err := run(plain); err != nil {
			return result{}, fmt.Errorf("%s: %w", cfg.workload, err)
		}
		e = newEnv(root, cfg, length/2, newTracer())
		if err := run(e); err != nil {
			return result{}, fmt.Errorf("%s: %w", cfg.workload, err)
		}
		if err := probeCore(e); err != nil {
			return result{}, fmt.Errorf("%s: core probe: %w", cfg.workload, err)
		}
		e.set("trace.overhead_ratio", ratio(e.quantile(0.5), plain.quantile(0.5)))
		e.attempted += plain.attempted
		e.failed += plain.failed
		e.wrong = append(e.wrong, plain.wrong...)
		spans := e.tr.finish()
		path := filepath.Join(root, ".bench_build", "spans", cfg.workload+".json")
		if err := writeSpans(path, spans); err != nil {
			return result{}, err
		}
		printSelfTimes(w, cfg.workload, spans)
		fmt.Fprintf(w, "# %d spans written to %s\n", len(spans), path)
		vals, want = e.layer, sp.PerLayer
	}
	known := make(map[string]bool, len(want))
	res := result{Correct: len(e.wrong) == 0, Attempted: e.attempted, Failed: e.failed,
		Metrics: make(map[string]metric, len(want))}
	for _, m := range want {
		known[m.Name] = true
		v := vals[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("%s: metric %s is %v", cfg.workload, m.Name, v)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		fmt.Fprintf(w, "%s %s %s %s\n", cfg.workload, m.Name, strconv.FormatFloat(v, 'g', -1, 64), m.Unit)
	}
	for name := range vals {
		if !known[name] {
			return result{}, fmt.Errorf("%s: metric %s is not in BENCHMARK.json", cfg.workload, name)
		}
	}
	for _, msg := range e.wrong {
		fmt.Fprintf(w, "# ORACLE MISMATCH %s: %s\n", cfg.workload, msg)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return res, nil
}

// set is a file of runs: what -out writes, what compare reads, and the
// committed baseline's format.
type set struct {
	Seed    int64    `json:"seed"`
	Seconds float64  `json:"seconds"`
	Trace   bool     `json:"trace"`
	Host    string   `json:"host"`
	Runs    []setRun `json:"runs"`
}

type setRun struct {
	Workload string `json:"workload"`
	Run      int    `json:"run"`
	result
}

// runAll runs every workload cfg.runs times, each in a fresh child process
// (a fresh runtime, its own peak RSS, no cache carried between workloads).
func runAll(w io.Writer, root string, sp *spec, cfg config) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	out := set{Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Host: hostDescription()}
	var failures []string
	for r := 1; r <= cfg.runs; r++ {
		for _, wl := range sp.Workloads {
			cmd := exec.Command(exe, "-workload", wl.Name,
				"-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"-trace="+strconv.FormatBool(cfg.trace),
				"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64))
			cmd.Dir = root
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			res, perr := lastResult(stdout)
			for _, line := range strings.Split(strings.TrimSpace(string(stdout)), "\n") {
				if !strings.HasPrefix(line, "{") {
					fmt.Fprintln(w, line)
				}
			}
			switch {
			case err != nil:
				failures = append(failures, fmt.Sprintf("%s run %d: %v", wl.Name, r, err))
			case perr != nil:
				failures = append(failures, fmt.Sprintf("%s run %d: %v", wl.Name, r, perr))
			}
			if perr == nil {
				out.Runs = append(out.Runs, setRun{Workload: wl.Name, Run: r, result: res})
			}
		}
	}
	if cfg.out != "" {
		b, err := json.MarshalIndent(out, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(failures) > 0 {
		return errors.New(strings.Join(failures, "; "))
	}
	return nil
}

// lastResult parses the JSON result a workload run prints last.
func lastResult(stdout []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := sc.Bytes(); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// hostDescription names the hardware a set was measured on.
func hostDescription() string {
	cpu := "unknown cpu"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("%s, %d CPUs", cpu, runtime.NumCPU())
}

// Command e2ebench is the repository's end-to-end benchmark. It runs
// one named workload against the analysis system, checks every op's
// output against a cold single-process reference run, and prints the
// workload's metrics by name with their units; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash e2ebench/run.sh --workload edit_loop --seed 3 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
// traced run that reports the per-layer metrics and writes its spans
// and per-op rows to a JSON file under -tracedir. The workload runs in
// a child process, so peak_rss_mb is that workload's own high-water
// mark (daemon_mix's daemon runs in a process of its own, and its
// peak is reported). See layers.json for each workload's purpose and the layer to
// end-to-end map.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds one workload process, set-up and gates included:
// a fixed allowance for set-up plus a multiple of the measured period,
// which covers the gates run after it (daemon_mix gates every post).
// At --seconds 30 it is 150 s.
func childTimeout(seconds float64) time.Duration {
	return 60*time.Second + time.Duration(3*seconds*float64(time.Second))
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	cfg := &runConfig{Setups: 3}
	fs.StringVar(&cfg.Workload, "workload", "", "workload: cold_batch, edit_loop, daemon_mix or fleet_cold")
	fs.Int64Var(&cfg.Seed, "seed", 1, "seed every input is derived from")
	fs.Float64Var(&cfg.Seconds, "seconds", 15, "how long to measure")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&cfg.WorkDir, "workdir", ".bench_build/work", "directory for the run's temporary files")
	fs.StringVar(&cfg.TraceDir, "tracedir", ".bench_build/traces", "directory for traced runs' span files")
	child := fs.Bool("child", false, "run the workload in this process (internal)")
	daemon := fs.Bool("serve-daemon", false, "serve daemon_mix's daemon until stdin closes (internal)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.Trace = *trace == 1
	if *daemon {
		return serveDaemon(cfg.Trace, stdout)
	}
	if _, ok := workloads[cfg.Workload]; !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", cfg.Workload)
		return 2
	}
	if cfg.Seconds <= 0 {
		fmt.Fprintln(os.Stderr, "e2ebench: -seconds must be positive")
		return 2
	}
	if *child {
		return runChild(cfg, stdout)
	}
	return runParent(cfg, args, stdout)
}

// runChild runs the workload in this process and prints the full
// result as its last line.
func runChild(cfg *runConfig, stdout io.Writer) int {
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runParent runs the workload in a child process, adds the child's
// peak RSS, and prints the run record and then the result line.
func runParent(cfg *runConfig, args []string, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	work, err := filepath.Abs(filepath.Join(cfg.WorkDir, fmt.Sprintf("%s-%d", cfg.Workload, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(filepath.Join(work, "tmp"), 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	// Temporary files of the run (spill logs) stay in the work dir.
	defer os.RemoveAll(work)

	ctx, cancel := context.WithTimeout(context.Background(), childTimeout(cfg.Seconds))
	defer cancel()
	childArgs := append(append([]string{"-child"}, args...), "-workdir", work)
	cmd := exec.CommandContext(ctx, exe, childArgs...)
	cmd.Env = append(os.Environ(), "TMPDIR="+filepath.Join(work, "tmp"))
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	runErr := cmd.Run()
	res, perr := lastResult(out.Bytes())
	if runErr != nil || perr != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: workload process: %v %v\n", runErr, perr)
		return 1
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok || ru.Maxrss <= 0 {
		fmt.Fprintln(os.Stderr, "e2ebench: no peak RSS for the workload process")
		return 1
	}
	if !cfg.Trace {
		// Linux reports ru_maxrss in KiB.
		peak := float64(ru.Maxrss) / 1024
		if res.ServerRSSMB > 0 {
			peak = res.ServerRSSMB
		}
		res.Metrics["peak_rss_mb"] = metricValue{Value: peak, Unit: "MiB"}
	}
	return emit(res, stdout)
}

// lastResult parses the child's last output line.
func lastResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	if last == "" {
		return nil, fmt.Errorf("no result line")
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// emit prints the run record, then the result line (the last line of
// standard output). A run whose gate failed exits 1 after printing.
func emit(res *result, stdout io.Writer) int {
	info, _ := json.Marshal(res.Info)
	fmt.Fprintf(stdout, "run %s\n", info)
	if res.Error != "" {
		fmt.Fprintf(os.Stderr, "e2ebench: correctness gate failed: %s\n", res.Error)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

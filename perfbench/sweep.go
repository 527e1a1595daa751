package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"locmap/internal/experiments"
	"locmap/internal/stats"
)

// sweep: the 14 paper experiments on the fixed app subsets the golden
// test pins (goldenJobs in internal/experiments/golden_test.go), run
// in paperbench's order through one shared experiments.Runner at
// -j nproc. Every table is checked against the checked-in golden
// hashes. Each repetition runs in a fresh child process, so setup time
// and peak memory are the sweep's own.

const (
	sweepChildArg = "sweep-child"
	goldenPath    = "internal/experiments/testdata/golden_tables.json"
)

// sweepExperiments mirrors goldenJobs: one regular app for the
// sweeps, two for the main tables, the 4-app mix for the
// multiprogrammed study.
func sweepExperiments() []struct {
	name string
	run  func(experiments.Options) *stats.Table
	apps []string
} {
	one := []string{"mxm"}
	two := []string{"swim", "mxm"}
	return []struct {
		name string
		run  func(experiments.Options) *stats.Table
		apps []string
	}{
		{"fig2", experiments.Fig2, two},
		{"table3", experiments.Table3, two},
		{"fig7", experiments.Fig7, two},
		{"fig8", experiments.Fig8, two},
		{"fig9", experiments.Fig9, one},
		{"fig10", experiments.Fig10, one},
		{"fig11", experiments.Fig11, one},
		{"fig12", experiments.Fig12, one},
		{"fig13", experiments.Fig13, one},
		{"fig14", experiments.Fig14, one},
		{"fig15", experiments.Fig15, two},
		{"fig16", experiments.Fig16, one},
		{"fig17", experiments.Fig17, one},
		{"multi", experiments.MultiProg, []string{"swim", "mxm", "fft", "hpccg"}},
	}
}

// sweepTable is one experiment's wall time and table hash.
type sweepTable struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	SHA256  string  `json:"sha256"`
}

// sweepReport is what one sweep child prints.
type sweepReport struct {
	FirstJobUnixNano int64        `json:"first_job_unix_nano"`
	Experiments      []sweepTable `json:"experiments"`
	SweepSeconds     float64      `json:"sweep_seconds"`
	Requested        uint64       `json:"requested"`
	Executed         uint64       `json:"executed"`
	Memoized         uint64       `json:"memoized"`
	QueueWaitS       float64      `json:"queue_wait_s"`
	PeakRSSMiB       float64      `json:"peak_rss_mib"`
}

// sweepChild runs the job set once and prints a sweepReport.
func sweepChild(args []string) int {
	fs := flag.NewFlagSet(sweepChildArg, flag.ContinueOnError)
	setupOnly := fs.Bool("setup-only", false, "stop where the first job would be submitted")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	jobs := runtime.NumCPU()
	runner := experiments.NewRunner(jobs)
	var rep sweepReport
	rep.FirstJobUnixNano = time.Now().UnixNano()
	start := time.Now()
	for _, e := range sweepExperiments() {
		if *setupOnly {
			break
		}
		t0 := time.Now()
		tab := e.run(experiments.Options{Apps: e.apps, Jobs: jobs, Runner: runner})
		sum := sha256.Sum256([]byte(tab.String()))
		rep.Experiments = append(rep.Experiments, sweepTable{e.name, time.Since(t0).Seconds(), hex.EncodeToString(sum[:])})
	}
	rep.SweepSeconds = time.Since(start).Seconds()
	c := runner.Counters()
	rep.Requested, rep.Executed, rep.Memoized = c.Requested, c.Executed, c.Memoized
	rep.QueueWaitS = c.QueueWait.Seconds()
	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep child:", err)
		return 1
	}
	rep.PeakRSSMiB = rss
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "sweep child:", err)
		return 1
	}
	return 0
}

// runSweepOnce starts one sweep child and returns its report and the
// time from starting the process to its first job submission.
func runSweepOnce(ctx context.Context, env *runEnv, extra ...string) (*sweepReport, time.Duration, error) {
	args := append([]string{sweepChildArg}, extra...)
	cmd := exec.CommandContext(ctx, env.self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), "TMPDIR="+env.work)
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("sweep child: %w", err)
	}
	var rep sweepReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, 0, fmt.Errorf("sweep child report: %w", err)
	}
	return &rep, time.Unix(0, rep.FirstJobUnixNano).Sub(start), nil
}

// loadGoldens reads the checked-in golden hashes (never writes them).
func loadGoldens(root string) (map[string]string, error) {
	raw, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return nil, err
	}
	var entries []struct {
		Name   string `json:"name"`
		SHA256 string `json:"sha256"`
	}
	if err := json.Unmarshal(raw, &entries); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		out[e.Name] = e.SHA256
	}
	return out, nil
}

func runSweep(ctx context.Context, env *runEnv) (*outcome, error) {
	o := newOutcome()
	goldens, err := loadGoldens(env.root)
	if err != nil {
		return nil, err
	}
	var reps []*sweepReport
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		_, setup, err := runSweepOnce(ctx, env, "-setup-only")
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
	}
	start := time.Now()
	for len(reps) == 0 || time.Since(start)+time.Duration(reps[0].SweepSeconds*float64(time.Second)) <= env.seconds {
		rep, setup, err := runSweepOnce(ctx, env)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		setups = append(setups, setup.Seconds())
		for _, e := range rep.Experiments {
			o.attempted++
			if want, ok := goldens[e.Name]; !ok {
				o.fail("sweep %s: no golden entry", e.Name)
			} else if want != e.SHA256 {
				o.fail("sweep %s: table hash %s differs from golden %s", e.Name, e.SHA256[:12], want[:12])
			}
		}
	}
	var sweepS, rss, qwait, memo, executed, tableP50 []float64
	perExp := map[string][]float64{}
	for _, r := range reps {
		var tables []float64
		for _, e := range r.Experiments {
			tables = append(tables, 1000*e.Seconds)
		}
		tableP50 = append(tableP50, median(tables))
		sweepS = append(sweepS, r.SweepSeconds)
		rss = append(rss, r.PeakRSSMiB)
		qwait = append(qwait, r.QueueWaitS)
		memo = append(memo, float64(r.Memoized)/float64(r.Requested))
		executed = append(executed, float64(r.Executed))
		for _, e := range r.Experiments {
			perExp[e.Name] = append(perExp[e.Name], e.Seconds)
		}
	}
	o.set("setup_s", median(setups), "s")
	o.set("sweep_s", median(sweepS), "s")
	o.set("rss_peak_mb", median(rss), "MiB")
	o.set("fast_p50_ms", median(tableP50), "ms")
	o.set("slow_p50_ms", 1000*median(sweepS), "ms")
	for name, xs := range perExp {
		o.set("sweep."+name+"_s", median(xs), "s")
	}
	o.set("experiments.queue_wait_s", median(qwait), "s")
	o.set("experiments.memo_frac", median(memo), "fraction")
	o.note("runner: %d of %d job requests served from the memo in the first repetition", reps[0].Memoized, reps[0].Requested)
	o.set("experiments.executed", median(executed), "count")
	o.note("sweep: %d repetitions in fresh processes, %d tables each, runner -j %d", len(reps), len(reps[0].Experiments), runtime.NumCPU())
	if env.trace {
		if err := traceSweep(env, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

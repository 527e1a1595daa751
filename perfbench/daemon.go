package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one locmapd process started for a run. It runs with
// default flags except the run-isolation ones: a fresh -journal-dir
// (the default journal is shared across runs, so a previous run's
// optimize children would replay into the plan cache as hits this run
// never paid for), loopback -addr and -metrics listeners, and its
// access log redirected to a file.
type daemon struct {
	cmd     *exec.Cmd
	base    string // API base URL
	metrics string // GET /metrics URL
	logPath string
	exited  chan struct{}
	waitErr error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches bin with a fresh journal directory and log file
// under dir and waits for its first 200 from /readyz. It returns the
// time from launching the process to that answer.
func startDaemon(bin, dir string) (*daemon, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	journal, err := os.MkdirTemp(dir, "journal-")
	if err != nil {
		return nil, 0, err
	}
	logFile, err := os.CreateTemp(dir, "access-*.log")
	if err != nil {
		return nil, 0, err
	}
	defer logFile.Close() // the child holds its own descriptor
	apiPort, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	metricsPort, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{
		base:    fmt.Sprintf("http://127.0.0.1:%d", apiPort),
		metrics: fmt.Sprintf("http://127.0.0.1:%d/metrics", metricsPort),
		logPath: logFile.Name(),
		exited:  make(chan struct{}),
	}
	d.cmd = exec.Command(bin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", apiPort),
		"-metrics", fmt.Sprintf("127.0.0.1:%d", metricsPort),
		"-journal-dir", journal)
	d.cmd.Stdout = logFile
	d.cmd.Stderr = logFile
	d.cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start locmapd: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	deadline := start.Add(20 * time.Second)
	for {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("locmapd exited before ready: %v (log %s)", d.waitErr, d.logPath)
		default:
		}
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("locmapd not ready after 20s (log %s)", d.logPath)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// peakRSSMiB reads the process's VmHWM (peak resident set) in MiB.
func peakRSSMiB(pid int) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// peakRSS is the daemon's VmHWM in MiB; read it before stop.
func (d *daemon) peakRSS() (float64, error) { return peakRSSMiB(d.cmd.Process.Pid) }

// stop sends SIGTERM and waits for a clean exit: status 0 and the
// "shutting down" line in the log.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal locmapd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("locmapd did not exit within 30s of SIGTERM")
	}
	if d.waitErr != nil {
		return fmt.Errorf("locmapd exited uncleanly: %v (log %s)", d.waitErr, d.logPath)
	}
	log, err := os.ReadFile(d.logPath)
	if err != nil {
		return err
	}
	if !strings.Contains(string(log), "shutting down") {
		return fmt.Errorf("locmapd log %s lacks the shutdown line", d.logPath)
	}
	return nil
}

// kill stops the process unconditionally and waits for it; it is the
// error-path cleanup and is safe after stop.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Kill()
	<-d.exited
}

// setupRepeats is how many times a serving run starts locmapd to
// measure setup_s.
const setupRepeats = 9

// measureSetups starts and cleanly stops locmapd n times and returns
// the median time to ready. Repeating it keeps a one-off page-cache or
// scheduler hiccup out of setup_s.
func measureSetups(ctx context.Context, bin, dir string, n int) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		d, ready, err := startDaemon(bin, dir)
		if err != nil {
			return 0, err
		}
		if err := d.stop(); err != nil {
			d.kill()
			return 0, err
		}
		xs = append(xs, ready.Seconds())
	}
	return median(xs), nil
}

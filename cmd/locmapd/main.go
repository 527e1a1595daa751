// Command locmapd is the long-running mapping service: the locmap
// compile pipeline behind an HTTP/JSON API with a schedule-plan cache,
// so recurring workloads get their location-aware schedules without
// re-running the pipeline.
//
// Usage:
//
//	locmapd [flags]
//
// Flags:
//
//	-addr ADDR        listen address (default :8347)
//	-workers N        max concurrent mapping/simulation jobs (default GOMAXPROCS)
//	-sim-workers N    goroutines each simulation spreads its mesh regions
//	                  over (default 1, the serial engine, which is faster
//	                  for the simulated meshes' few events per window);
//	                  results are bit-identical at any value
//	-verify-workers N cap on -sim-workers for background verification
//	                  jobs (default NumCPU/2, min 1)
//	-cache N          plan-cache capacity in entries (default 1024)
//	-timeout D        per-request timeout, queueing included (default 30s)
//	-journal-dir DIR  batch-job journal directory (default locmapd-journal
//	                  under the OS temp dir; point it at durable storage
//	                  to survive reboots)
//	-batch-workers N  max concurrent batch jobs (default workers/2, min 1)
//	-result-ttl D     batch-result retention after completion (default 15m)
//	-fast-tier        answer /v1/map from the analytical estimator (tier
//	                  "estimate", microseconds) and verify each plan with
//	                  a background simulation that upgrades the cached
//	                  entry to "verified" or "refined"
//	-alpha-tol F      verification tolerance on the LLC hit fraction
//	                  before a plan is refined (default 0.1)
//	-latency-tol F    verification tolerance on relative cycle-count
//	                  drift before a plan is refined (default 0.5)
//	-remap-interval D session epoch-controller sweep period and minimum
//	                  spacing between one session's remap epochs
//	                  (default 5s)
//	-drift-alpha-tol F  windowed α drift at which a session's telemetry
//	                  triggers a remap epoch (default: -alpha-tol)
//	-max-tenants N    max concurrently registered sessions (default 64)
//	-peers LIST       comma-separated base URLs of every cluster member,
//	                  this node included; requests are routed to each
//	                  fingerprint's owning node (off by default — see
//	                  README's cluster quickstart)
//	-node-id URL      this node's own entry in -peers (required with
//	                  -peers)
//	-cluster-timeout D  per-peer cache-operation timeout (default 2s)
//	-pprof ADDR       serve net/http/pprof on ADDR (off by default)
//	-metrics ADDR     serve GET /metrics (Prometheus text format) on ADDR
//	                  (off by default)
//	-log-json         emit structured logs as JSON instead of text
//
// Endpoints: POST /v1/map, POST /v1/estimate, POST /v1/simulate, POST /v1/batch,
// GET /v1/batch/{id}, POST /v1/optimize, GET /v1/jobs,
// GET|DELETE /v1/jobs/{id}, POST|GET /v1/sessions,
// GET|DELETE /v1/sessions/{id} (+ /telemetry, /plan),
// GET|PUT|DELETE /v1/cluster/plan/{fingerprint} (peer cache traffic),
// GET /v1/stats, GET /healthz, GET /readyz (see API.md). /v1/optimize
// searches run as batch jobs, so -batch-workers also bounds how many
// run at once. The process drains in-flight requests, then drains or
// persists queued batch jobs, and exits cleanly on SIGINT/SIGTERM; on
// restart with the same -journal-dir it replays the journal and
// resumes unfinished jobs.
//
// -pprof and -metrics expose the Go profiling endpoints and the
// Prometheus exposition on separate listeners so production traffic
// and diagnostics never share a port; leave them unset to expose
// nothing. Every request is logged as one structured line (log/slog)
// carrying the request's X-Request-Id.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"locmap/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "locmapd:", err)
		os.Exit(1)
	}
}

// splitPeers turns the -peers flag value into a member list, dropping
// empty segments so trailing commas are harmless.
func splitPeers(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

func run() error {
	addr := flag.String("addr", ":8347", "listen address")
	workers := flag.Int("workers", 0, "max concurrent jobs (0 = GOMAXPROCS)")
	simWorkers := flag.Int("sim-workers", 1, "region-engine goroutines per simulation (1 = serial engine)")
	verifyWorkers := flag.Int("verify-workers", 0, "sim-workers cap for background verification (0 = NumCPU/2)")
	cacheCap := flag.Int("cache", 1024, "plan-cache capacity in entries")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	journalDir := flag.String("journal-dir", filepath.Join(os.TempDir(), "locmapd-journal"),
		"batch-job journal directory")
	batchWorkers := flag.Int("batch-workers", 0, "max concurrent batch jobs (0 = workers/2)")
	resultTTL := flag.Duration("result-ttl", 15*time.Minute, "batch-result retention after completion")
	fastTier := flag.Bool("fast-tier", false,
		"answer /v1/map from the analytical estimator and verify in the background")
	alphaTol := flag.Float64("alpha-tol", 0.1,
		"max |predicted - simulated| LLC hit fraction before a plan is refined")
	latencyTol := flag.Float64("latency-tol", 0.5,
		"max relative cycle-count drift before a plan is refined")
	remapInterval := flag.Duration("remap-interval", 5*time.Second,
		"session epoch-controller sweep period and min epoch spacing")
	driftAlphaTol := flag.Float64("drift-alpha-tol", 0,
		"windowed α drift triggering a session remap (0 = -alpha-tol)")
	maxTenants := flag.Int("max-tenants", 0, "max concurrently registered sessions (0 = 64)")
	peers := flag.String("peers", "",
		"comma-separated base URLs of every cluster member, this node included (empty = single node)")
	nodeID := flag.String("node-id", "", "this node's own entry in -peers")
	clusterTimeout := flag.Duration("cluster-timeout", 2*time.Second,
		"per-peer cache-operation timeout")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	metricsAddr := flag.String("metrics", "", "serve GET /metrics on this address (empty = disabled)")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON")
	flag.Parse()
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", flag.Args())
	}

	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	if *pprofAddr != "" {
		// A dedicated mux: the default one would also be reachable from
		// any other handler registered against http.DefaultServeMux.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				logger.Error("pprof listener failed", "error", err)
			}
		}()
	}

	srv, err := server.New(server.Config{
		Workers:          *workers,
		SimWorkers:       *simWorkers,
		VerifyWorkers:    *verifyWorkers,
		CacheCapacity:    *cacheCap,
		RequestTimeout:   *timeout,
		JournalDir:       *journalDir,
		BatchWorkers:     *batchWorkers,
		ResultTTL:        *resultTTL,
		FastTier:         *fastTier,
		AlphaTolerance:   *alphaTol,
		LatencyTolerance: *latencyTol,
		RemapInterval:    *remapInterval,
		DriftAlphaTol:    *driftAlphaTol,
		MaxTenants:       *maxTenants,
		Peers:            splitPeers(*peers),
		NodeID:           *nodeID,
		ClusterTimeout:   *clusterTimeout,
		Logger:           logger,
	})
	if err != nil {
		return err
	}

	if *metricsAddr != "" {
		// Same policy as -pprof: diagnostics never share the API port.
		go func() {
			logger.Info("metrics listening", "addr", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, srv.MetricsHandler()); err != nil {
				logger.Error("metrics listener failed", "error", err)
			}
		}()
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	// Drain running batch jobs within the remaining grace period; jobs
	// still queued (or interrupted) stay journaled and resume on the
	// next start with the same -journal-dir.
	return srv.Close(shutCtx)
}

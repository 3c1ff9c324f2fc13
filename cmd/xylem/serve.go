package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/xylem-sim/xylem/internal/serve"
	"github.com/xylem-sim/xylem/internal/thermal"
)

// serveFlags registers the daemon configuration flags and returns a
// builder that assembles the serve.Config after parsing.
func serveFlags(fs *flag.FlagSet) func() (serve.Config, string, error) {
	addr := fs.String("addr", "127.0.0.1:9378", "HTTP listen address")
	queue := fs.Int("queue", 64, "requests that may wait for a solver (beyond solvers+queue = 429)")
	cacheCap := fs.Int("cache", 8, "artifact cache capacity in stacks (0 = rebuild per request)")
	solvers := fs.Int("solvers", 2, "concurrent solves")
	workers := fs.Int("workers", 0, "CG kernel workers per solver (0 = serial)")
	precond := fs.String("precond", "", "CG preconditioner: auto (multigrid), mg, or jacobi")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus/JSON metrics on this address (empty = off)")
	return func() (serve.Config, string, error) {
		cfg := serve.DefaultConfig()
		cfg.Addr = *addr
		cfg.QueueCap = *queue
		cfg.CacheCap = *cacheCap
		cfg.Solvers = *solvers
		cfg.Workers = *workers
		cfg.RetryAfter = *retryAfter
		pc, ok := thermal.ParsePrecond(*precond)
		if !ok {
			return cfg, "", fmt.Errorf("serve: unknown preconditioner %q", *precond)
		}
		cfg.Precond = pc
		return cfg, *metricsAddr, nil
	}
}

// cmdServe runs the thermal-solve daemon until SIGINT/SIGTERM, then
// drains gracefully: admitted requests are solved and answered, late
// arrivals get 503.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	build := serveFlags(fs)
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful drain budget at shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, metricsAddr, err := build()
	if err != nil {
		return err
	}
	reg, err := startMetrics(metricsAddr)
	if err != nil {
		return err
	}
	cfg.Obs = reg

	srv := serve.New(cfg)
	if err := srv.Start(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "xylem: serving thermal solves on http://%s/v1/solve (solvers %d, queue %d, cache %d)\n",
		srv.Addr(), cfg.Solvers, cfg.QueueCap, cfg.CacheCap)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	fmt.Fprintln(os.Stderr, "xylem: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "xylem: served %d responses (%d errors, %d overload, %d draining rejections)\n",
		st.Responses, st.Errors, st.RejectedOverload, st.RejectedDraining)
	return nil
}

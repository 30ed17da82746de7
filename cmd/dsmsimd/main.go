// Command dsmsimd is the simulation-as-a-service daemon: a long-running
// HTTP/JSON server that runs sweep points and whole paper experiments
// through a priority job queue, an in-flight coalescing table and a
// content-addressed result cache. Because every point is deterministic, a
// result is an immutable value named by its fingerprint — identical
// requests coalesce onto one engine run, repeats are cache hits, and the
// tables the daemon serves are byte-identical to the invalsweep CLI's.
//
// SIGINT/SIGTERM drains gracefully: intake closes, in-flight jobs get the
// -drain-grace budget to finish (every point they completed is already in
// the result store), a job cut off keeps its file under -data's jobs/, and
// a restart over the same -data directory resumes whatever was cut off. An
// experiment the drain cuts off gets an error status, never a partial table.
// An experiment request carries its own k, d and trials (zero: invalsweep's
// defaults).
package main

//simcheck:allow-file nogoroutine -- the daemon is a server; concurrency is confined to internal/service and net/http

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8077", "listen address (port 0 picks an ephemeral port, printed at startup)")
		workers    = flag.Int("workers", 4, "engine worker pool size")
		queueDepth = flag.Int("queue-depth", 1024, "run queue bound; beyond it submissions get 503")
		cache      = flag.Int("cache", 4096, "in-memory result cache entries (0 = unbounded)")
		data       = flag.String("data", "", "data directory: results/ is the durable result store, jobs/ holds one file per unfinished job (empty = memory only)")
		drainGrace = flag.Duration("drain-grace", 30*time.Second, "how long a drain waits for in-flight jobs before cancelling them")
		timeout    = flag.Duration("point-timeout", 0, "default per-point wall-clock budget (0 = none)")
	)
	flag.Parse()

	store, err := service.OpenStore(*data, *cache)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsmsimd: %v\n", err)
		os.Exit(1)
	}
	cfg := service.Config{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		DefaultTimeout: *timeout,
		Store:          store,
		DataDir:        *data,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	daemon, err := service.StartDaemon(service.DaemonConfig{Service: cfg, Addr: *addr})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsmsimd: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "dsmsimd: serving on %s (workers=%d cache=%d data=%q)\n",
		daemon.Addr(), *workers, *cache, *data)

	<-ctx.Done()

	fmt.Fprintln(os.Stderr, "dsmsimd: draining...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := daemon.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "dsmsimd: drain: %v\n", err)
		os.Exit(1)
	}
	if err := daemon.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "dsmsimd: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "dsmsimd: drained cleanly")
}

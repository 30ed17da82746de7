package service

//simcheck:allow-file nogoroutine -- the daemon serves HTTP on its own goroutine by design

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"
)

// DaemonConfig assembles a whole serving daemon — the service core and its
// HTTP server — with an injectable listen address so tests and the load
// harness can self-host on an ephemeral port. Every daemon serves its
// experiment endpoint through its own service, so any number of them can
// share a process.
type DaemonConfig struct {
	// Service configures the core (see Config).
	Service Config
	// Addr is the listen address; "127.0.0.1:0" picks an ephemeral port
	// (the default when empty), which is the test hook: start, read Addr(),
	// point a client at it.
	Addr string
}

// Daemon is a running service + HTTP server pair. Stop it with Shutdown.
type Daemon struct {
	svc      *Service
	server   *http.Server
	listener net.Listener
	err      chan error
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so a client that opens connections and trickles bytes
// cannot hold them open indefinitely.
const readHeaderTimeout = 10 * time.Second

// StartDaemon builds the service, binds the listener and starts serving.
// On return the daemon is accepting connections — there is no race between
// "started" and "listening" because the bind happens synchronously.
func StartDaemon(cfg DaemonConfig) (*Daemon, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	svc, err := New(cfg.Service)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		_ = svc.Drain(context.Background())
		return nil, fmt.Errorf("service: listen %s: %w", cfg.Addr, err)
	}
	d := &Daemon{
		svc:      svc,
		server:   &http.Server{Handler: NewServer(svc).Handler(), ReadHeaderTimeout: readHeaderTimeout},
		listener: ln,
		err:      make(chan error, 1),
	}
	go func() { d.err <- d.server.Serve(ln) }() //simcheck:allow nogoroutine -- the HTTP accept loop
	return d, nil
}

// Service returns the daemon's core, for white-box assertions in tests.
func (d *Daemon) Service() *Service { return d.svc }

// Addr returns the bound listen address (resolving an ephemeral port).
func (d *Daemon) Addr() string { return d.listener.Addr().String() }

// BaseURL returns the daemon's HTTP base URL.
func (d *Daemon) BaseURL() string { return "http://" + d.Addr() }

// Err reports the serve loop's terminal error, nil after a clean Shutdown.
func (d *Daemon) Err() error {
	err := <-d.err
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown stops accepting connections, then drains the service; ctx
// bounds both phases (in-flight jobs get until it ends, then are cancelled;
// their journal files stay, for a restart to resume).
func (d *Daemon) Shutdown(ctx context.Context) error {
	httpErr := d.server.Shutdown(ctx)
	drainErr := d.svc.Drain(ctx)
	if drainErr != nil {
		return drainErr
	}
	return httpErr
}

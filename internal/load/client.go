package load

//simcheck:allow-file nogoroutine -- the HTTP client is shared by the runner's concurrent client goroutines

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/service"
	"repro/internal/sim"
)

// PointTemplate shapes every point of the load universe; only the seed
// varies between universe entries (derived per index from the schedule
// seed), so the whole universe is cheap enough to run on CI yet every entry
// is a distinct fingerprint.
type PointTemplate struct {
	K       int
	Scheme  string
	D       int
	Pattern string
	Trials  int
}

// DefaultTemplate is a tiny point that still runs the full protocol stack:
// a 4x4 mesh, 2 sharers, 2 trials — milliseconds per engine run.
func DefaultTemplate() PointTemplate {
	return PointTemplate{K: 4, Scheme: "MI-MA-ec", D: 2, Pattern: "clustered", Trials: 2}
}

// Universe is the set of distinct points a load run draws from, with their
// precomputed fingerprints (index-aligned with the schedule's Point field).
type Universe struct {
	Specs        []service.PointSpec
	Fingerprints []string
}

// NewUniverse builds a size-point universe from the template: entry i gets
// seed sim.DeriveSeed(seed, i), giving size distinct fingerprints that are a
// pure function of (template, seed, size).
func NewUniverse(tpl PointTemplate, seed uint64, size int) (*Universe, error) {
	if size <= 0 {
		return nil, fmt.Errorf("load: universe size %d; want > 0", size)
	}
	u := &Universe{
		Specs:        make([]service.PointSpec, size),
		Fingerprints: make([]string, size),
	}
	for i := 0; i < size; i++ {
		spec := service.PointSpec{
			K: tpl.K, Scheme: tpl.Scheme, D: tpl.D, Pattern: tpl.Pattern,
			Trials: tpl.Trials, Seed: sim.DeriveSeed(seed, uint64(i)),
		}
		p, err := spec.Point(0)
		if err != nil {
			return nil, fmt.Errorf("load: universe template: %w", err)
		}
		u.Specs[i] = spec
		u.Fingerprints[i] = p.Fingerprint()
	}
	return u, nil
}

// Client speaks the daemon's HTTP API: every dsmsimctl subcommand and the
// load runner reach the daemon through it, and every request it sends goes
// through do. Each method hands the body of a 2xx reply to its out
// argument: an io.Writer receives the bytes as they arrive, nil drops them,
// and anything else is JSON-decoded into. Any other status is a
// *StatusError. All methods are safe for concurrent use.
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8080").
func NewClient(baseURL string) *Client {
	return &Client{base: baseURL, http: &http.Client{}}
}

// StatusError is a non-2xx daemon response, carrying the body's error
// field; the verifier matches on Code to tell expected misses (404) and
// sheds (503) from real failures.
type StatusError struct {
	Path    string
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%s: HTTP %d: %s", e.Path, e.Code, e.Message)
}

// do sends one request, with in JSON-encoded as its body unless in is nil,
// and hands the reply to out.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		var doc struct {
			Error string `json:"error"`
		}
		msg := string(bytes.TrimSpace(data))
		if json.Unmarshal(data, &doc) == nil && doc.Error != "" {
			msg = doc.Error
		}
		return &StatusError{Path: path, Code: resp.StatusCode, Message: msg}
	}
	switch w := out.(type) {
	case nil:
		_, err = io.Copy(io.Discard, resp.Body)
	case io.Writer:
		_, err = io.Copy(w, resp.Body)
	default:
		// Read to EOF before decoding so the connection is reused.
		var data []byte
		if data, err = io.ReadAll(resp.Body); err == nil {
			err = json.Unmarshal(data, out)
		}
	}
	return err
}

// Get fetches one of the daemon's read-only endpoints (/healthz,
// /v1/stats, /v1/jobs[/{id}], /v1/metrics, /v1/results/{fingerprint}).
func (c *Client) Get(ctx context.Context, path string, out any) error {
	return c.do(ctx, http.MethodGet, path, nil, out)
}

// SubmitMode selects how Submit waits for its job, and so what the reply
// holds; its value is the query string it adds to /v1/jobs.
type SubmitMode string

const (
	// Wait blocks until the job ends; the reply is its service.JobResult.
	Wait SubmitMode = "?wait=1"
	// Async returns once the job is accepted; the reply carries its ID.
	Async SubmitMode = ""
	// Stream replies with NDJSON service.ProgressEvent lines as the job
	// runs, the last one terminal.
	Stream SubmitMode = "?stream=1"
)

// Submit posts a job.
func (c *Client) Submit(ctx context.Context, jr service.JobRequest, mode SubmitMode, out any) error {
	return c.do(ctx, http.MethodPost, "/v1/jobs"+string(mode), jr, out)
}

// Experiment runs one named paper experiment; the reply is its rendered
// table, the bytes an in-process dsmsimctl experiment prints.
func (c *Client) Experiment(ctx context.Context, req service.ExperimentRequest, out any) error {
	return c.do(ctx, http.MethodPost, "/v1/experiments", req, out)
}

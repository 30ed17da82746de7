package service

//simcheck:allow-file nogoroutine -- HTTP handlers run on net/http's goroutines by design

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/sweep"
)

// Server is the HTTP face of a Service: JSON in, JSON (or CSV, or the
// paper's aligned tables) out. Create with NewServer and mount Handler.
type Server struct {
	svc *Service
}

// NewServer wraps a service.
func NewServer(svc *Service) *Server {
	return &Server{svc: svc}
}

// maxBodyBytes bounds a POST body; a larger one is refused with 413 before
// it is decoded. The largest body an in-repo client sends is the warm job
// of dsmsimctl load over its whole universe, about 100 bytes per point
// (3 KB at the default 32 points), so 1 MiB admits a warm job of some
// 10 000 points.
const maxBodyBytes = 1 << 20

// decodeBody decodes the JSON body of a POST into v. It answers 413 for a
// body over maxBodyBytes and 400 for any other malformed one, a field v does
// not have included: a silently dropped field would serve another point than
// the one asked for. It reports whether v holds the request.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, code, map[string]string{"error": "bad " + what + " request: " + err.Error()})
	return false
}

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/results/{fp}", s.handleResult)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/experiments", s.handleExperiment)
	return mux
}

// writeJSON answers code with v as the bytes json.Encoder writes under
// SetIndent("", " "). v is marshalled before the header goes out, so a value
// json.Marshal refuses (a NaN measure) answers 500 with an error body rather
// than code with an empty one.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, fmt.Errorf("service: encode reply: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(appendIndent(make([]byte, 0, 2*len(b)), b), '\n'))
}

// appendIndent appends src to dst as json.Indent(dst, src, "", " ") does.
// src must be valid and compact, as json.Marshal writes it, so only the
// structural bytes between values need looking at: strings, numbers and
// literals are copied verbatim.
func appendIndent(dst, src []byte) []byte {
	depth := 0
	newline := func(dst []byte) []byte {
		dst = append(dst, '\n')
		for i := 0; i < depth; i++ {
			dst = append(dst, ' ')
		}
		return dst
	}
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '{', '[':
			dst = append(dst, c)
			if src[i+1] == '}' || src[i+1] == ']' {
				i++
				dst = append(dst, src[i])
				continue
			}
			depth++
			dst = newline(dst)
		case '}', ']':
			depth--
			dst = append(newline(dst), c)
		case ',':
			dst = newline(append(dst, c))
		case ':':
			dst = append(dst, ':', ' ')
		case '"':
			j := i + 1
			for ; src[j] != '"'; j++ {
				if src[j] == '\\' {
					j++
				}
			}
			dst = append(dst, src[i:j+1]...)
			i = j
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.As(err, new(badRequest)):
		code = http.StatusBadRequest
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	state := "ok"
	code := http.StatusOK
	if s.svc.Draining() {
		state = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"status": state})
}

// handleSubmit accepts a job. Modes, by query parameter:
//
//	(default)  register the job, return its ID immediately (poll /v1/jobs/{id})
//	?wait=1    block until the job finishes, return the JobResult
//	?stream=1  block, streaming NDJSON progress frames, then the result
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var jr JobRequest
	if !decodeBody(w, r, "job", &jr) {
		return
	}
	spec, err := jr.Spec()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	switch {
	case r.URL.Query().Get("stream") == "1":
		s.streamJob(w, r, spec)
	case r.URL.Query().Get("wait") == "1":
		res, err := s.svc.RunJob(r.Context(), spec, nil)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	default:
		id, err := s.svc.Submit(spec)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
	}
}

// streamJob runs a job on the request goroutine, emitting one NDJSON
// ProgressEvent per completed point (chunked transfer keeps the connection
// live) and a terminal result or error frame.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, spec JobSpec) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(ev ProgressEvent) {
		_ = enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}
	res, err := s.svc.RunJob(r.Context(), spec, func(p sweep.Progress) {
		emit(ProgressEvent{
			Type: "progress", Done: p.Done, Total: p.Total, Partial: p.Partial,
			ElapsedMS: p.Elapsed.Milliseconds(),
		})
	})
	if err != nil {
		emit(ProgressEvent{Type: "error", Error: err.Error()})
		return
	}
	emit(ProgressEvent{Type: "result", Result: res})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if r.URL.Query().Get("wait") == "1" {
		st, err := s.svc.Wait(r.Context(), id)
		if err != nil {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, st)
		return
	}
	st, ok := s.svc.Status(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("unknown job %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	if !validFingerprint(fp) {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("fingerprint %q is not lowercase hex", fp)})
		return
	}
	m, ok, err := s.svc.Store().Get(fp)
	if err != nil {
		writeError(w, err)
		return
	}
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no result for fingerprint " + fp})
		return
	}
	writeJSON(w, http.StatusOK, ResultResponse{Fingerprint: fp, Measures: m})
}

// handleMetrics serves the per-request metric log as flat CSV (the default)
// or, with ?format=json, as a JSON document with the counters attached. It
// copies the whole ring, O(MetricCap), by design; pollers want /v1/stats.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		counters, recs := s.svc.Metrics().Snapshot()
		writeJSON(w, http.StatusOK, map[string]any{
			"counters": counters,
			"requests": recs,
		})
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, s.svc.Metrics().Table().CSV())
}

// handleStats serves the counters and the store and queue sizes. Every read
// is O(1), so polling it costs the same on a fresh daemon and a busy one.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	counters := s.svc.Metrics().Counters()
	storeLen, err := s.svc.Store().Len()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Counters:   counters,
		HitRate:    counters.HitRate(),
		ShedRate:   counters.ShedRate(),
		QueueDepth: s.svc.QueueDepth(),
		StoreLen:   storeLen,
		Draining:   s.svc.Draining(),
	})
}

// handleExperiment serves Service.Experiment: the table as aligned text or
// CSV, byte-identical to what dsmsimctl experiment prints in process.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	var req ExperimentRequest
	if !decodeBody(w, r, "experiment", &req) {
		return
	}
	table, err := s.svc.Experiment(r.Context(), req, nil)
	if err != nil {
		writeError(w, err)
		return
	}
	contentType := "text/plain; charset=utf-8"
	if req.CSV {
		contentType = "text/csv"
	}
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, table)
}

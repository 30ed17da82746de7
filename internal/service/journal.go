package service

//simcheck:allow-file nogoroutine -- journal files are written and removed from server goroutines, one file per job, outside the service mutex

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// journalVersion is bumped when the jobs/<id>.json layout changes
// incompatibly.
const journalVersion = 1

// jobFile is jobs/<id>.json, which exists from register until the job reaches
// a terminal state on its own. It records *what* was asked, never partial
// results: a finished point is in the result store before it is delivered, so
// replaying the spec after a restart hits those and runs only what was lost.
type jobFile struct {
	Version int     `json:"version"`
	Job     JobSpec `json:"job"`
}

// validJobID reports whether id is safe as a file name under jobs/. No
// leading dot: that prefix belongs to atomicWriteJSON's temporaries.
func validJobID(id string) bool {
	const plain = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._-"
	return len(id) >= 1 && len(id) <= 64 && id[0] != '.' && strings.Trim(id, plain) == ""
}

// jobPath maps a job ID to its journal file (callers check DataDir is set).
func (s *Service) jobPath(id string) string {
	return filepath.Join(s.cfg.DataDir, "jobs", id+".json")
}

// resumeJobs resubmits every job left under jobs/, once, from New. A
// jobs.json left by a build that kept one whole-document journal gets no
// second loader: an empty one is removed, one listing jobs stops the start-up.
func (s *Service) resumeJobs() error {
	if s.cfg.DataDir == "" {
		return nil
	}
	legacy := filepath.Join(s.cfg.DataDir, "jobs.json")
	if data, err := os.ReadFile(legacy); err == nil {
		var doc struct {
			Jobs []json.RawMessage `json:"jobs"`
		}
		if err := json.Unmarshal(data, &doc); err != nil || len(doc.Jobs) > 0 {
			return fmt.Errorf("service: %s is a job journal from an older build that still lists unfinished jobs; start the previous build over this directory, let it finish them and drain it, then start this one", legacy)
		}
		if err := os.Remove(legacy); err != nil {
			return fmt.Errorf("service: journal: %w", err)
		}
	}
	dir := filepath.Join(s.cfg.DataDir, "jobs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("service: journal dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("service: journal: %w", err)
	}
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		if strings.HasPrefix(e.Name(), ".") {
			os.Remove(path) // temporary of a write a kill cut short; never acknowledged
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("service: journal: %w", err)
		}
		var jf jobFile
		if err := json.Unmarshal(data, &jf); err != nil {
			return fmt.Errorf("service: corrupt journal file %s: %w", path, err)
		}
		if jf.Version != journalVersion {
			return fmt.Errorf("service: journal file %s has version %d; want %d", path, jf.Version, journalVersion)
		}
		if jf.Job.ID+".json" != e.Name() {
			return fmt.Errorf("service: journal file %s holds job %q", path, jf.Job.ID)
		}
		if _, err := s.Submit(jf.Job); err != nil {
			return fmt.Errorf("service: resume job %q: %w", jf.Job.ID, err)
		}
	}
	return nil
}

package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// FileVersion is the on-disk trace format version.
const FileVersion = 1

// File is the on-disk form of a recording: run metadata plus the retained
// event stream, as JSON. The format is self-describing enough for the
// offline consumers (critical path, occupancy and its link heatmaps,
// protocol event dump, Perfetto export) to work from the file alone.
type File struct {
	Version  int     `json:"version"`
	Width    int     `json:"width"`
	Height   int     `json:"height"`
	Scheme   string  `json:"scheme,omitempty"`
	Workload string  `json:"workload,omitempty"`
	D        int     `json:"d,omitempty"`
	Trials   int     `json:"trials,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
	Dropped  uint64  `json:"dropped,omitempty"`
	Events   []Event `json:"events"`
}

// Write serializes the file as indented JSON.
func (f *File) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// ReadFile parses a trace file and checks its version.
func ReadFile(r io.Reader) (*File, error) {
	var f File
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("trace: parse: %w", err)
	}
	if f.Version != FileVersion {
		return nil, fmt.Errorf("trace: unsupported file version %d (want %d)", f.Version, FileVersion)
	}
	return &f, nil
}

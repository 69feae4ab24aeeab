package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"laperm/internal/spec"
)

// SweepCellView is one row of a sweep's cell table.
type SweepCellView struct {
	Index     int      `json:"index"`
	RunID     string   `json:"run_id"`
	Values    []string `json:"values"`
	Source    string   `json:"source"` // "run", "dedupe", "cache"
	State     string   `json:"state"`
	Error     string   `json:"error,omitempty"`
	ErrorKind string   `json:"error_kind,omitempty"`
}

// SweepView is the wire representation of a sweep returned by the sweep
// submit and status endpoints.
type SweepView struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Tenant    string          `json:"tenant"`
	Priority  int             `json:"priority"`
	Cached    bool            `json:"cached"`
	Canceled  bool            `json:"canceled,omitempty"`
	Coalesced int64           `json:"coalesced,omitempty"`
	Axes      []string        `json:"axes"`
	Cells     int             `json:"cells"`
	Done      int             `json:"done"`
	Failed    int             `json:"failed,omitempty"`
	Deduped   int             `json:"deduped"`
	FromCache int             `json:"served_from_cache"`
	Scheduled int             `json:"scheduled"`
	Error     string          `json:"error,omitempty"`
	ErrorKind string          `json:"error_kind,omitempty"`
	Spec      spec.SweepSpec  `json:"spec"`
	CellTable []SweepCellView `json:"cell_table,omitempty"`
	Artifacts []string        `json:"artifacts,omitempty"`
}

// Terminal reports whether the sweep has finished (successfully or not).
func (v SweepView) Terminal() bool { return v.State == "done" || v.State == "failed" }

// SweepFailedError is a sweep that reached the failed state.
type SweepFailedError struct {
	ID, Kind, Message string
}

func (e *SweepFailedError) Error() string {
	return fmt.Sprintf("client: sweep %s failed (%s): %s", e.ID, e.Kind, e.Message)
}

// SubmitSweep POSTs a sweep spec; the server expands it into cells and
// schedules what the cluster has not already computed. Idempotent by sweep
// content hash, exactly like Submit.
func (c *Client) SubmitSweep(ctx context.Context, sp spec.SweepSpec) (SweepView, error) {
	payload, err := json.Marshal(sp)
	if err != nil {
		return SweepView{}, err
	}
	return c.SubmitSweepRaw(ctx, payload)
}

// SubmitSweepRaw is SubmitSweep for callers holding the spec as JSON.
func (c *Client) SubmitSweepRaw(ctx context.Context, specJSON []byte) (SweepView, error) {
	var v SweepView
	err := c.call(ctx, http.MethodPost, "/v1/sweeps", specJSON, &v)
	return v, err
}

// SweepStatus fetches a sweep's current view, including its cell table.
func (c *Client) SweepStatus(ctx context.Context, id string) (SweepView, error) {
	var v SweepView
	err := c.call(ctx, http.MethodGet, "/v1/sweeps/"+id, nil, &v)
	return v, err
}

// SweepArtifact fetches one sweep-level artifact (sweep.json, cells.csv,
// result.json).
func (c *Client) SweepArtifact(ctx context.Context, id, name string) ([]byte, error) {
	return c.do(ctx, http.MethodGet, "/v1/sweeps/"+id+"/artifacts/"+name, nil)
}

// CancelSweep asks the server to cancel a sweep; cells shared with other
// requests keep running for their other owners.
func (c *Client) CancelSweep(ctx context.Context, id string) (SweepView, error) {
	var v SweepView
	err := c.call(ctx, http.MethodPost, "/v1/sweeps/"+id+"/cancel", []byte("{}"), &v)
	return v, err
}

// WatchSweep streams a sweep's events — per-cell completions and the
// terminal state — reconnecting on stream tears with Last-Event-ID, the
// same exactly-once contract as WatchEvents.
func (c *Client) WatchSweep(ctx context.Context, id string, handler func(SSEEvent) error) error {
	return c.watch(ctx, "/v1/sweeps/"+id+"/events", handler)
}

// RunSweep is the end-to-end sweep call: submit, poll until terminal, and
// return the final view (with cell table). A failed sweep returns the view
// plus a *SweepFailedError.
func (c *Client) RunSweep(ctx context.Context, sp spec.SweepSpec) (SweepView, error) {
	v, err := c.SubmitSweep(ctx, sp)
	if err != nil {
		return SweepView{}, err
	}
	for !v.Terminal() {
		if err := c.sleep(ctx, c.cfg.PollInterval); err != nil {
			return SweepView{}, err
		}
		if v, err = c.SweepStatus(ctx, v.ID); err != nil {
			return SweepView{}, err
		}
	}
	if v.State == "failed" {
		return v, &SweepFailedError{ID: v.ID, Kind: v.ErrorKind, Message: v.Error}
	}
	// Re-fetch to ensure the cell table is present (submit responses omit
	// it).
	if len(v.CellTable) == 0 {
		if full, err := c.SweepStatus(ctx, v.ID); err == nil {
			v = full
		}
	}
	return v, nil
}

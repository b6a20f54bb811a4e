package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/deep"
)

// ResultPayload is the structured result of a finished job — the body
// of GET /v1/jobs/{id}/result. Exactly one of Experiment or Workload
// is set, matching the spec kind. The bytes a client receives are the
// bytes of the first computation: cache hits serve the stored
// marshalling verbatim, so cached and fresh results are
// byte-identical.
type ResultPayload struct {
	Kind string `json:"kind"` // "experiment" | "workload"
	// Key is the spec's content address.
	Key        string            `json:"key"`
	Experiment *ExperimentResult `json:"experiment,omitempty"`
	Workload   *deep.Result      `json:"workload,omitempty"`
}

// ExperimentResult is one registry run in wire form.
type ExperimentResult struct {
	ID       string      `json:"id"`
	Title    string      `json:"title"`
	PaperRef string      `json:"paper_ref"`
	Table    *deep.Table `json:"table"`
}

// Execute runs a normalized spec to completion and packages the
// outcome under key: the JSON result payload, the rendered text, and
// the trace / metrics attachments the spec asks for. progress, when
// non-nil, receives one label per simulation run the job opens
// (experiment sweep points). deepd's workers and deeprun both run
// specs through it, so a spec's stored bytes do not depend on which
// tool computed them.
func Execute(ctx context.Context, key string, spec *JobSpec, progress func(string)) (*Entry, error) {
	entry := &Entry{Key: key, Verified: true}
	payload := &ResultPayload{Key: key}
	var text, trace, metrics func(io.Writer) error
	if spec.Experiment != "" {
		rep, err := spec.runner(progress).Run(ctx, spec.Experiment)
		if err != nil {
			return nil, err
		}
		res := rep.Results[0]
		payload.Kind = "experiment"
		payload.Experiment = &ExperimentResult{
			ID: res.ID, Title: res.Title, PaperRef: res.PaperRef, Table: res.Table,
		}
		text = func(w io.Writer) error { return deep.TableSink{}.Write(w, rep) }
		trace, metrics = rep.WriteChromeTrace, rep.WriteMetricsCSV
	} else {
		env, wl, err := spec.buildEnv()
		if err != nil {
			return nil, err
		}
		res, err := deep.Run(ctx, env, wl)
		if err != nil {
			return nil, err
		}
		switch {
		case spec.Trace && res.Trace == nil:
			return nil, fmt.Errorf("workload %q records no trace", wl.Name())
		case spec.MetricsEveryS > 0 && res.Series == nil:
			return nil, fmt.Errorf("workload %q samples no metrics (only engine-backed workloads do)", wl.Name())
		}
		payload.Kind, payload.Workload = "workload", res
		entry.Verified = res.Verified
		text, trace, metrics = res.WriteText, res.Trace.WriteChrome, res.Series.WriteCSV
	}
	var err error
	if entry.Result, err = json.Marshal(payload); err != nil {
		return nil, err
	}
	if entry.Text, err = render(text); err != nil {
		return nil, err
	}
	if spec.Trace {
		if entry.Trace, err = render(trace); err != nil {
			return nil, err
		}
	}
	if spec.MetricsEveryS > 0 {
		if entry.Metrics, err = render(metrics); err != nil {
			return nil, err
		}
	}
	return entry, nil
}

// render captures one writer-based export.
func render(write func(io.Writer) error) ([]byte, error) {
	var buf bytes.Buffer
	err := write(&buf)
	return buf.Bytes(), err
}

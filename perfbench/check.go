package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"penelope/internal/experiments"
)

// envelope is the frame every result payload ships in.
type envelope struct {
	Schema     int                 `json:"schema"`
	Experiment string              `json:"experiment"`
	Options    experiments.Options `json:"options"`
	Data       json.RawMessage     `json:"data"`
}

// checkPayload requires a payload to parse and to carry the requested
// experiment, the current schema and the request's canonical options.
func checkPayload(r request, payload []byte) error {
	var env envelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return fmt.Errorf("%s payload does not parse: %w", r.Experiment, err)
	}
	switch {
	case env.Schema != experiments.SchemaVersion:
		return fmt.Errorf("%s payload schema %d, want %d", r.Experiment, env.Schema, experiments.SchemaVersion)
	case env.Experiment != r.Experiment:
		return fmt.Errorf("payload is %q, requested %q", env.Experiment, r.Experiment)
	case env.Options != r.canonical():
		return fmt.Errorf("%s payload options %+v, want %+v", r.Experiment, env.Options, r.canonical())
	case len(env.Data) == 0 || string(env.Data) == "null":
		return fmt.Errorf("%s payload has no data", r.Experiment)
	}
	return nil
}

// reference runs a request in this process and marshals it the way the
// server does, giving the bytes the served payload must equal.
func reference(r request) ([]byte, error) {
	canon := r.canonical()
	res, err := experiments.Run(r.Experiment, canon)
	if err != nil {
		return nil, err
	}
	return experiments.NewPayload(res, canon).Marshal()
}

// checkGolden compares a served golden-option payload with the committed
// golden under root. lifetime and yield must match byte for byte. For
// fig6 and fig8 the server drops the golden's fleet knobs from the
// options (they do not affect those experiments), so only their data
// sections must be equal.
func checkGolden(root, id string, payload []byte) error {
	want, err := os.ReadFile(filepath.Join(root, "internal", "experiments", "testdata", id+"_golden.json"))
	if err != nil {
		return err
	}
	if id == "lifetime" || id == "yield" {
		if !bytes.Equal(payload, want) {
			return fmt.Errorf("%s payload differs from its golden (%d vs %d bytes)", id, len(payload), len(want))
		}
		return nil
	}
	var got, gold envelope
	if err := json.Unmarshal(payload, &got); err != nil {
		return fmt.Errorf("%s payload does not parse: %w", id, err)
	}
	if err := json.Unmarshal(want, &gold); err != nil {
		return fmt.Errorf("%s golden does not parse: %w", id, err)
	}
	var a, b bytes.Buffer
	if err := json.Compact(&a, got.Data); err != nil {
		return err
	}
	if err := json.Compact(&b, gold.Data); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("%s data section differs from its golden", id)
	}
	return nil
}

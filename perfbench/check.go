package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"

	"repro/wire"
)

// checkRun strictly decodes one /v2/run result body and checks that it
// answers a workflow of wantTasks tasks and is the canonical encoding
// of the document it decodes to.
func checkRun(body []byte, wantTasks int) error {
	var doc wire.RunDocumentV2
	if err := wire.DecodeStrict(bytes.NewReader(body), &doc); err != nil {
		return fmt.Errorf("check: run body: %w", err)
	}
	if doc.Tasks != wantTasks {
		return fmt.Errorf("check: %s ran %d tasks, spec has %d", doc.Workflow, doc.Tasks, wantTasks)
	}
	enc, err := doc.Encode()
	if err != nil {
		return fmt.Errorf("check: re-encode: %w", err)
	}
	if !bytes.Equal(enc, body) {
		return fmt.Errorf("check: %s body is not its canonical encoding", doc.Workflow)
	}
	return nil
}

// checkSweep checks one /v2/sweep NDJSON stream against the grid it
// answers: one strictly decoded row per point in grid order, each with
// the point's task count, then exactly one terminal done envelope
// counting them.  A stream without its done envelope was truncated.
func checkSweep(stream []byte, wantTasks []int) error {
	lines := bytes.Split(bytes.TrimSuffix(stream, []byte("\n")), []byte("\n"))
	rows := 0
	for i, line := range lines {
		var env wire.SweepEnvelope
		if err := wire.DecodeStrict(bytes.NewReader(line), &env); err != nil {
			return fmt.Errorf("check: sweep line %d: %w", i, err)
		}
		switch {
		case env.Error != "":
			return fmt.Errorf("check: sweep failed mid-stream: %s", env.Error)
		case env.Done != nil:
			if i != len(lines)-1 {
				return fmt.Errorf("check: sweep has data after its done envelope")
			}
			if env.Done.Rows != len(wantTasks) || rows != len(wantTasks) {
				return fmt.Errorf("check: sweep done counts %d rows, streamed %d, grid has %d",
					env.Done.Rows, rows, len(wantTasks))
			}
			return nil
		case env.Row != nil:
			if env.Row.Index != rows || rows >= len(wantTasks) {
				return fmt.Errorf("check: sweep row %d arrived as index %d", rows, env.Row.Index)
			}
			if env.Row.Tasks != wantTasks[rows] {
				return fmt.Errorf("check: sweep row %d ran %d tasks, spec has %d", rows, env.Row.Tasks, wantTasks[rows])
			}
			rows++
		default:
			return fmt.Errorf("check: sweep line %d is an empty envelope", i)
		}
	}
	return fmt.Errorf("check: sweep stream ended without its done envelope")
}

// digests holds the committed SHA-256 of each workload's outputs on
// the default seed at full size.
//
//go:embed digests.json
var digestsJSON []byte

func committedDigest(workload string) (string, error) {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	return m[workload], nil
}

// digest accumulates a workload's outputs in a deterministic order.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

// add feeds one output, length-prefixed so boundaries count.
func (d *digest) add(b []byte) {
	fmt.Fprintf(d.h, "%d\n", len(b))
	d.h.Write(b)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

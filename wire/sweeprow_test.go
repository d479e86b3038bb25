package wire

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestAppendSweepRowMatchesEncoder pins the raw-row splice against the
// envelope a json.Encoder writes for the decoded document: a row
// streamed from cached bytes must be the row a re-encode would produce.
func TestAppendSweepRowMatchesEncoder(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "golden_v2_run_*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden run documents: %v", err)
	}
	for _, path := range paths {
		body, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc RunDocumentV2
		if err := DecodeStrict(bytes.NewReader(body), &doc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, index := range []int{0, 7, 1234} {
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(SweepEnvelope{Row: &SweepRow{Index: index, RunDocumentV2: doc}}); err != nil {
				t.Fatal(err)
			}
			prefix := []byte("kept")
			got, err := AppendSweepRow(prefix, index, body)
			if err != nil {
				t.Fatalf("%s row %d: %v", path, index, err)
			}
			if !bytes.HasPrefix(got, prefix) {
				t.Errorf("%s row %d: dst prefix overwritten", path, index)
			}
			if got := got[len(prefix):]; !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s row %d:\ngot  %s\nwant %s", path, index, got, want.Bytes())
			}
		}
	}
}

func TestAppendSweepRowRejectsNonObjects(t *testing.T) {
	for name, body := range map[string]string{
		"empty":     "",
		"array":     `[1, 2]`,
		"string":    `"doc"`,
		"number":    `42`,
		"truncated": `{"version": 2`,
	} {
		if got, err := AppendSweepRow(nil, 0, []byte(body)); err == nil {
			t.Errorf("%s: accepted as %q", name, got)
		}
	}
	// An empty object is still an object: no dangling comma.
	got, err := AppendSweepRow(nil, 3, []byte("{ }\n"))
	if err != nil || string(got) != "{\"row\":{\"index\":3}}\n" {
		t.Errorf("empty object = %q, %v", got, err)
	}
}

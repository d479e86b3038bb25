package server

// Byte-level goldens for the grid endpoints: a /v1/sweep stream over
// every axis it has (a ccr > 0 point and a repeated CCR value included)
// and the default-mode advisor bodies of both surfaces.  Regenerate with
// go test ./internal/server -run TestGridGoldens -update.

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden response fixtures")

// goldenSweepV1 is the /v1/sweep request the sweep golden pins:
// processors x modes x CCRs, with ccr 0 (the plain /v1/run of each
// plan) and a repeated positive CCR.
const goldenSweepV1 = `{"workflow":"1deg","billing":"provisioned","processors":[1,4],"modes":["regular","cleanup"],"ccrs":[0,0.5,0.5]}`

func TestGridGoldens(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(goldenSweepV1))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/sweep status %d: %s", resp.StatusCode, stream)
	}
	checkGolden(t, "v1_sweep.golden.ndjson", stream)

	for name, path := range map[string]string{
		"v1_advisor.golden.json": "/v1/advisor?workflow=1deg&processors=1,2,4,8",
		"v2_advisor.golden.json": "/v2/advisor?workflow=1deg&processors=1,2,4,8",
	} {
		resp, body := getBody(t, ts.URL+path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d: %s", path, resp.StatusCode, body)
		}
		checkGolden(t, name, body)
	}
}

// checkGolden compares got with testdata/name byte for byte, or
// rewrites the fixture under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run go test ./internal/server -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("response drifted from %s:\n got: %s\nwant: %s", path, got, want)
	}
}

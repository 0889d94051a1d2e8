package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fig3 is the committed Perfetto pin of figure 3's traced PASE arm.
const fig3 = "../../internal/experiments/testdata/traced_fig3.json"

// TestRunSummarizesTrace: the figure-3 trace validates, and the summary
// line names its protocol and its three flows.
func TestRunSummarizesTrace(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{fig3}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	summary, _, _ := strings.Cut(stdout.String(), "\n")
	if !strings.Contains(summary, "proto PASE") || !strings.Contains(summary, " 3 flows") {
		t.Fatalf("summary line %q does not name proto PASE and 3 flows", summary)
	}
}

// TestRunRejectsTruncatedTrace: a trace cut short is invalid JSON and
// exits 1, naming the file.
func TestRunRejectsTruncatedTrace(t *testing.T) {
	raw, err := os.ReadFile(fig3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cut.json")
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{path}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "cut.json: invalid JSON") {
		t.Fatalf("stderr %q does not name the file as invalid JSON", stderr.String())
	}
}

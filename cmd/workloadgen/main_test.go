package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags: each input here used to panic with a
// goroutine trace or pass silently; now it exits 1 and names its flag.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-pattern", "left-right", "-fanin", "4"}, "-fanin"},
		{[]string{"-load", "0"}, "-load"},
		{[]string{"-load", "1.5"}, "-load"},
		{[]string{"-ref-gbps", "-1"}, "-ref-gbps"},
		{[]string{"-hosts", "1"}, "-hosts"},
		{[]string{"-hosts", "0"}, "-hosts"},
		{[]string{"-pattern", "left-right", "-hosts", "1"}, "-hosts"},
		{[]string{"-min-size", "5000", "-max-size", "100"}, "-min-size"},
		{[]string{"-flows", "-3"}, "-flows"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1 (stderr %q)", tc.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.flag) {
			t.Errorf("%v: stderr %q does not name %s", tc.args, stderr.String(), tc.flag)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %q to stdout", tc.args, stdout.String())
		}
	}
}

// TestRunWritesTrace: a valid run prints the header and one line per
// flow, background flows first.
func TestRunWritesTrace(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-pattern", "left-right", "-hosts", "8", "-flows", "5", "-background", "1", "-deadlines"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != 7 || !strings.HasPrefix(lines[0], "# id\t") {
		t.Fatalf("want header + 6 flows, got:\n%s", stdout.String())
	}
	if !strings.HasSuffix(lines[1], "\ttrue") || !strings.HasSuffix(lines[2], "\tfalse") {
		t.Fatalf("background flow must come first:\n%s", stdout.String())
	}
}

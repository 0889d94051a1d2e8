package cliutil

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type protocol string

func TestJoin(t *testing.T) {
	for _, c := range []struct {
		in   []protocol
		want string
	}{
		{nil, ""},
		{[]protocol{"PASE"}, "PASE"},
		{[]protocol{"PASE", "DCTCP", "pFabric"}, "PASE, DCTCP, pFabric"},
	} {
		if got := Join(c.in); got != c.want {
			t.Errorf("Join(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// captureStderr runs fn with os.Stderr pointed at a file and returns
// what fn wrote there.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = saved }()
	fn()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestProgressNoOps(t *testing.T) {
	for name, p := range map[string]*Progress{
		"nil":      nil,
		"disabled": NewProgress("fig9a", false),
	} {
		out := captureStderr(t, func() {
			p.Update(1, 2)
			p.Update(2, 2)
			p.Done()
		})
		if out != "" {
			t.Errorf("%s meter wrote %q, want nothing", name, out)
		}
	}
}

func TestProgressDrawsAndClears(t *testing.T) {
	p := NewProgress("fig9a", true)
	out := captureStderr(t, func() {
		p.Update(0, 0) // no total: nothing to draw
		p.Update(2, 2)
		p.Done()
		p.Done() // already cleared
	})
	want := "\rfig9a: 2/2 points"
	if !strings.HasPrefix(out, want) {
		t.Errorf("meter wrote %q, want it to start %q", out, want)
	}
	if n := strings.Count(out, "\r\x1b[2K"); n != 1 {
		t.Errorf("meter cleared its line %d times, want 1", n)
	}
}

func TestProfilesOffWithEmptyPath(t *testing.T) {
	stop, err := StartCPUProfile("")
	if err != nil {
		t.Fatalf("StartCPUProfile(\"\"): %v", err)
	}
	stop()
	if err := WriteMemProfile(""); err != nil {
		t.Fatalf("WriteMemProfile(\"\"): %v", err)
	}
}

func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := StartCPUProfile(cpu)
	if err != nil {
		t.Fatalf("StartCPUProfile: %v", err)
	}
	sink := 0
	for i := 0; i < 1_000_000; i++ {
		sink += i * i
	}
	_ = sink
	stop()
	if err := WriteMemProfile(mem); err != nil {
		t.Fatalf("WriteMemProfile: %v", err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(path))
		}
	}
}

func TestProfilesUnwritablePath(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "x.prof")
	if stop, err := StartCPUProfile(bad); err == nil {
		stop()
		t.Error("StartCPUProfile on a missing directory returned no error")
	}
	if err := WriteMemProfile(bad); err == nil {
		t.Error("WriteMemProfile on a missing directory returned no error")
	}
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := WriteFile(path, func(w io.Writer) error { _, err := io.WriteString(w, "hello\n"); return err }); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "hello\n" {
		t.Fatalf("read back %q, %v", b, err)
	}
	boom := errors.New("boom")
	if err := WriteFile(path, func(io.Writer) error { return boom }); err != boom {
		t.Errorf("fn's error: got %v, want %v", err, boom)
	}
	if err := WriteFile(filepath.Join(dir, "no-such-dir", "x"), func(io.Writer) error { return nil }); err == nil {
		t.Error("WriteFile into a missing directory returned no error")
	}
}

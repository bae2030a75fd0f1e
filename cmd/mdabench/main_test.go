package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdacache/internal/clitest"
)

func TestMain(m *testing.M) {
	clitest.Main(m, "mdacache/cmd/mdabench")
}

// TestSmokeFig12 renders one figure at a tiny scale.
func TestSmokeFig12(t *testing.T) {
	res := clitest.Run(t, "mdabench", "-fig", "12", "-scale", "32")
	if res.Code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", res.Code, res.Stderr)
	}
	if !strings.Contains(res.Stdout, "Fig. 12") {
		t.Errorf("no Fig. 12 table:\n%s", res.Stdout)
	}
}

// TestSmokeResumeRoundTrip runs a figure twice against the same checkpoint:
// the second run must resume (and produce identical output).
func TestSmokeResumeRoundTrip(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "state.json")
	first := clitest.Run(t, "mdabench", "-fig", "13", "-scale", "32", "-resume", ckpt)
	if first.Code != 0 {
		t.Fatalf("first run: exit %d\nstderr:\n%s", first.Code, first.Stderr)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	second := clitest.Run(t, "mdabench", "-fig", "13", "-scale", "32", "-resume", ckpt)
	if second.Code != 0 {
		t.Fatalf("resumed run: exit %d\nstderr:\n%s", second.Code, second.Stderr)
	}
	if first.Stdout != second.Stdout {
		t.Errorf("resumed output differs from fresh output:\n--- fresh:\n%s--- resumed:\n%s",
			first.Stdout, second.Stdout)
	}
}

// TestUsageErrors pins exit code 2 for invalid invocations.
func TestUsageErrors(t *testing.T) {
	corrupt := filepath.Join(t.TempDir(), "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown figure", []string{"-fig", "99", "-scale", "32"}, "unknown figure"},
		{"zero scale", []string{"-fig", "12", "-scale", "0"}, "-scale must be"},
		{"positional args", []string{"-fig", "12", "stray"}, "unexpected arguments"},
		{"corrupt resume", []string{"-fig", "12", "-scale", "32", "-resume", corrupt}, "checkpoint"},
		{"removed bench flag", []string{"-bench-out", "x.json"}, "flag provided but not defined"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res := clitest.Run(t, "mdabench", c.args...)
			if res.Code != 2 {
				t.Fatalf("exit %d, want 2\nstderr:\n%s", res.Code, res.Stderr)
			}
			if !strings.Contains(res.Stderr, c.want) {
				t.Errorf("stderr lacks %q:\n%s", c.want, res.Stderr)
			}
		})
	}
}

// TestResumeMissingFileIsFirstRun pins the deliberate asymmetry: a missing
// -resume file is a valid first run (the checkpoint is created), NOT a usage
// error — only unreadable/corrupt state is refused.
func TestResumeMissingFileIsFirstRun(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fresh.json")
	res := clitest.Run(t, "mdabench", "-fig", "13", "-scale", "32", "-resume", ckpt)
	if res.Code != 0 {
		t.Fatalf("exit %d, want 0 (missing checkpoint = first run)\nstderr:\n%s", res.Code, res.Stderr)
	}
}

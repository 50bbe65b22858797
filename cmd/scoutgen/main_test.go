package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain doubles as the scoutgen entry point when re-exec'd (the pattern
// of cmd/scoutbench's tests): main() exits on a bad -dataset, so only a
// real process can show the exit code.
func TestMain(m *testing.M) {
	if os.Getenv("SCOUTGEN_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runScoutgen re-execs the test binary as scoutgen with the given args.
func runScoutgen(t *testing.T, args ...string) (stdout, stderr string, exitCode int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SCOUTGEN_BE_MAIN=1")
	var outBuf, errBuf strings.Builder
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	err := cmd.Run()
	if err == nil {
		return outBuf.String(), errBuf.String(), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("scoutgen %v: %v", args, err)
	}
	return outBuf.String(), errBuf.String(), ee.ExitCode()
}

// TestAllDatasets: -dataset all generates and indexes every dataset and
// prints one statistics line for each.
func TestAllDatasets(t *testing.T) {
	stdout, stderr, code := runScoutgen(t, "-dataset", "all", "-objects", "500")
	if code != 0 {
		t.Fatalf("scoutgen -dataset all exited %d\nstderr: %s", code, stderr)
	}
	for _, name := range []string{"neuro", "artery", "lung", "road"} {
		if n := strings.Count("\n"+stdout, "\n"+name+": "); n != 1 {
			t.Errorf("want one %q statistics line, got %d:\n%s", name, n, stdout)
		}
	}
}

// TestUnknownDataset: a mistyped -dataset is a usage error naming the valid
// ones, not a silent run of something else.
func TestUnknownDataset(t *testing.T) {
	_, stderr, code := runScoutgen(t, "-dataset", "brain")
	if code == 0 {
		t.Fatalf("scoutgen -dataset brain exited 0\nstderr: %s", stderr)
	}
	if !strings.Contains(stderr, "brain") || !strings.Contains(stderr, "neuro|artery|lung|road|all") {
		t.Errorf("stderr does not name the bad value and the valid ones:\n%s", stderr)
	}
}

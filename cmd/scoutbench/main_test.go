package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain doubles as the scoutbench entry point when re-exec'd: usage
// errors happen inside main() (flag validation + os.Exit), so the only way
// to test them is to run the real binary. The test binary re-invokes
// itself with SCOUTBENCH_BE_MAIN=1, which routes straight into main().
func TestMain(m *testing.M) {
	if os.Getenv("SCOUTBENCH_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runScoutbench re-execs the test binary as scoutbench with the given args.
func runScoutbench(t *testing.T, args ...string) (stderr string, exitCode int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SCOUTBENCH_BE_MAIN=1")
	var errBuf strings.Builder
	cmd.Stderr = &errBuf
	err := cmd.Run()
	if err == nil {
		return errBuf.String(), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("scoutbench %v: %v", args, err)
	}
	return errBuf.String(), ee.ExitCode()
}

// TestUsageErrors pins the strict-flag contract: a typo in -backend or -exp
// must exit 2 with the valid options on stderr — never fall back silently
// to measuring the default configuration. A removed flag is the same
// error: a stale script must fail, not run without the measurement it
// asked for.
func TestUsageErrors(t *testing.T) {
	undefined := func(flag string) []string {
		return []string{"flag provided but not defined: " + flag}
	}
	cases := []struct {
		name string
		args []string
		want []string // substrings that must appear on stderr
	}{
		{"unknown experiment", []string{"-exp", "fig99z"},
			[]string{"fig99z", "-list"}},
		{"unknown backend", []string{"-backend", "nvme"},
			[]string{"nvme", "-backend takes one of:", "sim", "file"}},
		{"removed -compare", []string{"-compare"}, undefined("-compare")},
		{"removed -benchjson", []string{"-benchjson", "x.json"}, undefined("-benchjson")},
		// Twelve flags that pinned one cell of a sweep the experiment
		// prints in full are gone. These rows once checked each flag's
		// bad values; the same invocations must now fail as undefined
		// flags, and every removed flag has at least one row.
		{"unknown faults profile", []string{"-faults", "catastrophic"}, undefined("-faults")},
		{"mistyped shard profile", []string{"-faults", "shard:meltdown"}, undefined("-faults")},
		{"unknown policy", []string{"-policy", "roundrobin"}, undefined("-policy")},
		{"unknown layout", []string{"-layout", "zorder"}, undefined("-layout")},
		{"negative slo", []string{"-slo", "-5ms"}, undefined("-slo")},
		{"unknown checksum mode", []string{"-checksum", "parity"}, undefined("-checksum")},
		{"unknown arrival process", []string{"-arrivals", "pareto"}, undefined("-arrivals")},
		{"negative rate", []string{"-rate", "-2"}, undefined("-rate")},
		{"unknown class mix", []string{"-classes", "vip"}, undefined("-classes")},
		{"negative patience", []string{"-patience", "-10ms"}, undefined("-patience")},
		{"unknown shard count", []string{"-shards", "3"}, undefined("-shards")},
		{"negative shard count", []string{"-shards", "-2"}, undefined("-shards")},
		{"unknown replica count", []string{"-replicas", "5"}, undefined("-replicas")},
		{"negative replica count", []string{"-replicas", "-1"}, undefined("-replicas")},
		{"sub-1 hedge threshold", []string{"-hedge", "0.5"}, undefined("-hedge")},
		{"negative hedge threshold", []string{"-hedge", "-2"}, undefined("-hedge")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stderr, code := runScoutbench(t, tc.args...)
			if code != 2 {
				t.Fatalf("scoutbench %v exited %d, want 2\nstderr: %s", tc.args, code, stderr)
			}
			for _, want := range tc.want {
				if !strings.Contains(stderr, want) {
					t.Errorf("stderr missing %q:\n%s", want, stderr)
				}
			}
		})
	}
}

// TestValidFlagsPassValidation: the canonical spellings of every gated flag
// get past validation (-list exits 0 before any dataset builds, so this
// stays fast).
func TestValidFlagsPassValidation(t *testing.T) {
	stderr, code := runScoutbench(t, "-list", "-backend", "file", "-sessions", "16", "-faultseed", "3")
	if code != 0 {
		t.Fatalf("valid flags rejected (exit %d):\n%s", code, stderr)
	}
}

// TestUnwritableBackendDir: pointing the file backend at a directory that
// cannot be created or written must be a clear usage error up front, not a
// panic from inside dataset setup.
func TestUnwritableBackendDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	stderr, code := runScoutbench(t, "-list", "-backend", "file", "-backenddir", dir+"/sub")
	if code != 2 {
		t.Fatalf("unwritable -backenddir exited %d, want 2\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "-backenddir") || !strings.Contains(stderr, "writable") {
		t.Errorf("stderr missing a clear writability message:\n%s", stderr)
	}
}

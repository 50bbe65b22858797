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

// TestUsageErrors pins the strict-flag contract: a typo in -exp must exit
// 2 with a pointer to the valid options on stderr — never fall back silently
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
		// The file-backend mode and the mu* session pin are gone too:
		// every experiment runs one configuration.
		{"unknown backend", []string{"-backend", "nvme"}, undefined("-backend")},
		{"removed -backenddir", []string{"-backenddir", "pages"}, undefined("-backenddir")},
		{"removed -sessions", []string{"-sessions", "16"}, undefined("-sessions")},
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

// TestValidFlagsPassValidation: a valid invocation gets past flag parsing
// (-list exits 0 before any dataset builds, so this stays fast).
func TestValidFlagsPassValidation(t *testing.T) {
	stderr, code := runScoutbench(t, "-list", "-faultseed", "3")
	if code != 0 {
		t.Fatalf("valid flags rejected (exit %d):\n%s", code, stderr)
	}
}

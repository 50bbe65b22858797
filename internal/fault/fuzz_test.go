package fault

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzParseProfile: ParseProfile never panics, accepts exactly the names
// Profiles and ShardProfiles list, quotes a refused name in its error, keys every accepted
// plan but "off" by the seed ("off" is the zero Plan), and is a pure
// function of its input.
func FuzzParseProfile(f *testing.F) {
	known := map[string]bool{}
	for _, name := range append(Profiles(), ShardProfiles()...) {
		known[name] = true
		f.Add(name, int64(7))
	}
	for _, near := range []string{"", "Shard:flaky", "off ", " off", "OFF", "shard:", "shard:flakey", "light\x00", "heavy\n"} {
		f.Add(near, int64(-1))
	}

	f.Fuzz(func(t *testing.T, name string, seed int64) {
		plan, err := ParseProfile(name, seed)
		again, errAgain := ParseProfile(name, seed)
		if plan != again || (err == nil) != (errAgain == nil) || (err != nil && err.Error() != errAgain.Error()) {
			t.Fatalf("ParseProfile(%q, %d) is not deterministic: %+v, %v then %+v, %v", name, seed, plan, err, again, errAgain)
		}
		if (err == nil) != known[name] {
			t.Fatalf("ParseProfile(%q, %d): err = %v, but the profile lists say: %v", name, seed, err, known[name])
		}
		switch {
		case err != nil:
			if !strings.Contains(err.Error(), strconv.Quote(name)) {
				t.Fatalf("ParseProfile(%q): error %q does not quote the name", name, err)
			}
		case name == "off":
			if plan != (Plan{}) {
				t.Fatalf(`ParseProfile("off", %d) = %+v, want the zero Plan`, seed, plan)
			}
		case plan.Seed != seed || !plan.Enabled():
			t.Fatalf("ParseProfile(%q, %d) = %+v: want an enabled plan keyed by the seed", name, seed, plan)
		}
	})
}

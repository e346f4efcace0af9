package parallel

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestWorkersEnvAtStartup re-runs this test binary under each
// EDGEKG_WORKERS value: a count ≥ 1 starts, anything else must stop the
// process at init naming the variable and the value, not run silently at
// GOMAXPROCS.
func TestWorkersEnvAtStartup(t *testing.T) {
	for _, tc := range []struct {
		val string
		ok  bool
	}{
		{"1", true},
		{"8", true},
		{"eight", false},
		{"0", false},
		{"-2", false},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "EDGEKG_WORKERS="+tc.val)
		out, err := cmd.CombinedOutput()
		if tc.ok {
			if err != nil {
				t.Errorf("EDGEKG_WORKERS=%s: child failed: %v\n%s", tc.val, err, out)
			}
			continue
		}
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Errorf("EDGEKG_WORKERS=%s: child exited %v, want a non-zero exit\n%s", tc.val, err, out)
			continue
		}
		if want := `EDGEKG_WORKERS="` + tc.val + `" is not a worker count`; !strings.Contains(string(out), want) {
			t.Errorf("EDGEKG_WORKERS=%s: child output lacks %q:\n%s", tc.val, want, out)
		}
	}
}

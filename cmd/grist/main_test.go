package main

import (
	"strings"
	"testing"

	"gristgo/internal/precision"
)

func TestCheckRun(t *testing.T) {
	for _, tc := range []struct {
		mode      string
		period    int
		faultProf string
		want      precision.Mode
		errPart   string // "" when the configuration is valid
	}{
		{"dp", 0, "", precision.DP, ""},
		{"mix", 3, "", precision.Mixed, ""},
		{"DP", 2, "", 0, "want dp or mix"},
		{"fp64", 2, "", 0, "want dp or mix"},
		{"", 2, "", 0, "want dp or mix"},
		{"mix", 4, "", 0, "want 0-3"},
		{"dp", -1, "", 0, "want 0-3"},
		{"dp", 0, "off", precision.DP, ""},
		{"mix", 1, "mlnan", precision.Mixed, ""},
		{"dp", 0, "bitflip", 0, "want off, mlnan or"},
		{"dp", 0, "rankdeath", 0, "want off, mlnan or"},
		{"dp", 0, "chaos", 0, "want off, mlnan or"},
		{"dp", 0, "none", 0, "want off, mlnan or"},
		{"dp", 0, "nonsense", 0, "want off, mlnan or"},
	} {
		got, err := checkRun(tc.mode, tc.period, tc.faultProf)
		switch {
		case tc.errPart == "" && err != nil:
			t.Errorf("checkRun(%q, %d, %q): %v", tc.mode, tc.period, tc.faultProf, err)
		case tc.errPart == "" && got != tc.want:
			t.Errorf("checkRun(%q, %d, %q) = %s, want %s", tc.mode, tc.period, tc.faultProf, got, tc.want)
		case tc.errPart != "" && (err == nil || !strings.Contains(err.Error(), tc.errPart)):
			t.Errorf("checkRun(%q, %d, %q) error = %v, want one naming %q", tc.mode, tc.period, tc.faultProf, err, tc.errPart)
		}
	}
}

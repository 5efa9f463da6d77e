package main

import (
	"strings"
	"testing"

	"gristgo/internal/precision"
)

func TestCheckRun(t *testing.T) {
	for _, tc := range []struct {
		mode    string
		period  int
		want    precision.Mode
		errPart string // "" when the configuration is valid
	}{
		{"dp", 0, precision.DP, ""},
		{"mix", 3, precision.Mixed, ""},
		{"DP", 2, 0, "want dp or mix"},
		{"fp64", 2, 0, "want dp or mix"},
		{"", 2, 0, "want dp or mix"},
		{"mix", 4, 0, "want 0-3"},
		{"dp", -1, 0, "want 0-3"},
	} {
		got, err := checkRun(tc.mode, tc.period)
		switch {
		case tc.errPart == "" && err != nil:
			t.Errorf("checkRun(%q, %d): %v", tc.mode, tc.period, err)
		case tc.errPart == "" && got != tc.want:
			t.Errorf("checkRun(%q, %d) = %s, want %s", tc.mode, tc.period, got, tc.want)
		case tc.errPart != "" && (err == nil || !strings.Contains(err.Error(), tc.errPart)):
			t.Errorf("checkRun(%q, %d) error = %v, want one naming %q", tc.mode, tc.period, err, tc.errPart)
		}
	}
}

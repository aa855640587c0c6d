package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAnalyzeOnlyFlagsNeedAnalyze: -diff and -csv are read only by
// -analyze, so without it they are errors, found before anything runs
// or any file is written; with it they pass.
func TestAnalyzeOnlyFlagsNeedAnalyze(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "x.csv")
	for _, tc := range []struct {
		args []string
		want string // error substring; "" = accepted
	}{
		{[]string{"-csv", csv, "-list"}, "-csv requires -analyze"},
		{[]string{"-csv", csv, "-run", "fig3-mesh"}, "-csv requires -analyze"},
		{[]string{"-diff", "-list"}, "-diff requires -analyze"},
		{[]string{"-analyze", "-csv", csv}, ""},
		{[]string{"-analyze", "-diff", "-csv", csv, "a", "b"}, ""},
		{[]string{"-scenario", "bogus"}, "unknown scenario"},
		{[]string{"-sched", "minrtt+otr+pen", "-workload", "Video"}, ""},
	} {
		var o options
		if err := newFlags(&o).Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := o.check()
		if (err == nil) != (tc.want == "") || err != nil && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: check() = %v, want %q", tc.args, err, tc.want)
		}
	}
	if _, err := os.Stat(csv); !os.IsNotExist(err) {
		t.Errorf("%s exists after checking flags: %v", csv, err)
	}
}

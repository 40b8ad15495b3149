package main

import (
	"bytes"
	"errors"
	"flag"
	"strings"
	"testing"
)

// TestRunReports drives whole command lines and checks the report lines
// that name the simulator path and the outcome.
func TestRunReports(t *testing.T) {
	cases := []struct {
		args string
		want []string
	}{
		{"-family two-cycle -protocol flood-b1 -n 64",
			[]string{"path     : bit plane", "outcome  : correct"}},
		{"-family barbell -protocol sketch-a1 -n 32",
			[]string{"path     : generic", "outcome  : refused detectably"}},
		{"-family one-cycle -protocol kt0-exchange -n 32 -seed 3",
			[]string{"protocol : kt0-exchange (b=1)", "outcome  : correct"}},
		{"-family one-cycle -protocol neighborhood -n 32",
			[]string{"rounds   : 10\n", "bits     : 320 broadcast", "outcome  : correct"}},
		{"-family er-threshold -protocol boruvka -n 12 -seed 5 -v",
			[]string{"labels   : 2 distinct", "  vertex  11: component"}},
		{"", // the defaults: neighborhood on a 16-vertex one-cycle
			[]string{"instance : n=16, family:one-cycle", "protocol : neighborhood", "outcome  : correct"}},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := run(t.Context(), strings.Fields(tc.args), &buf); err != nil {
			t.Errorf("bccsim %s: %v", tc.args, err)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("bccsim %s: report lacks %q:\n%s", tc.args, want, buf.String())
			}
		}
	}
}

// TestRunRejects checks that unknown names and the flags of the removed
// hand-built path are errors, that only a rejected command line is a
// usage error (main's exit 2), and that -h is flag's help request.
func TestRunRejects(t *testing.T) {
	type rejection struct {
		args, want string
		usage      bool
	}
	cases := []rejection{
		{"-family nope", `unknown family "nope"`, false},
		{"-protocol nope", `unknown protocol "nope"`, false},
	}
	for _, f := range []string{"model", "graph", "algo", "b", "trials", "parallel", "cache-dir"} {
		cases = append(cases, rejection{"-" + f + " 1", "flag provided but not defined: -" + f, true})
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		err := run(t.Context(), strings.Fields(tc.args), &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("bccsim %s: err = %v, want containing %q", tc.args, err, tc.want)
		}
		if errors.Is(err, errUsage) != tc.usage {
			t.Errorf("bccsim %s: usage error = %t, want %t", tc.args, !tc.usage, tc.usage)
		}
		if buf.Len() != 0 {
			t.Errorf("bccsim %s: printed a report:\n%s", tc.args, buf.String())
		}
	}
	if err := run(t.Context(), []string{"-h"}, new(bytes.Buffer)); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("bccsim -h: err = %v, want flag.ErrHelp", err)
	}
}

package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunEndToEnd(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-days", "6", "-templates", "5", "-qpd", "3", "-steer", "3"}, &out, &errw)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	for _, want := range []string{"project \"demo\"", "history:", "deployed LOAM", "steered 3 queries"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunRejectsBadFlags: an unknown flag, a negative count, a stray
// positional argument and -h all print the usage on the error writer and run
// nothing; only -h is not an error.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		args    []string
		wantErr bool
	}{
		{[]string{"-nope"}, true},
		{[]string{"-h"}, false},
		{[]string{"-steer", "-2"}, true}, // was a slice-bounds panic after a full deploy
		{[]string{"-days", "-1"}, true},  // printed "0 executions over -1 days" before failing
		{[]string{"-templates", "-1"}, true},
		{[]string{"-qpd", "-0.5"}, true},
		{[]string{"foo"}, true}, // was silently ignored
		{[]string{"-days", "6", "extra"}, true},
	} {
		var out, errw bytes.Buffer
		err := run(c.args, &out, &errw)
		if (err != nil) != c.wantErr {
			t.Fatalf("%v: err = %v, want error %v", c.args, err, c.wantErr)
		}
		if !strings.Contains(errw.String(), "Usage of loam-sim") || out.Len() != 0 {
			t.Fatalf("%v: usage not on the error writer alone:\nstdout: %s\nstderr: %s", c.args, out.String(), errw.String())
		}
	}
}

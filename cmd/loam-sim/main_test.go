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

// TestRunRejectsBadFlags: an unknown flag and -h both print the usage on the
// error writer and run nothing; only the unknown flag is an error.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		arg     string
		wantErr bool
	}{
		{"-nope", true},
		{"-h", false},
	} {
		var out, errw bytes.Buffer
		err := run([]string{c.arg}, &out, &errw)
		if (err != nil) != c.wantErr {
			t.Fatalf("%s: err = %v, want error %v", c.arg, err, c.wantErr)
		}
		if !strings.Contains(errw.String(), "Usage of loam-sim") || out.Len() != 0 {
			t.Fatalf("%s: usage not on the error writer alone:\nstdout: %s\nstderr: %s", c.arg, out.String(), errw.String())
		}
	}
}

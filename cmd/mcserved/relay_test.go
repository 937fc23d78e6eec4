package main

import (
	"bytes"
	"testing"
)

// TestRelayOptionValidation pins the -relay flag contract.
func TestRelayOptionValidation(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-relay"},
		{"-relay", "-connect", "x:1"},
		{"-relay", "-listen", ":0"},
		{"-relay", "-demo", "-connect", "x:1", "-listen", ":0"},
		{"-relay", "-chaos", "-connect", "x:1", "-listen", ":0"},
		{"-relay", "-connect", "x:1", "-listen", ":0", "-repair", "0"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

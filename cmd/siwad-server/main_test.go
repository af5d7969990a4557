package main

import (
	"reflect"
	"testing"

	"repro/internal/service"
)

func TestBadFlagExitsTwo(t *testing.T) {
	if code := run([]string{"-bogus"}); code != 2 {
		t.Fatalf("exit=%d", code)
	}
	if code := run([]string{"-workers", "nope"}); code != 2 {
		t.Fatalf("exit=%d", code)
	}
	if code := run([]string{"-limits", "bogus=1"}); code != 2 {
		t.Fatalf("exit=%d", code)
	}
}

func TestBadAddrExitsOne(t *testing.T) {
	if code := run([]string{"-addr", "256.256.256.256:http"}); code != 1 {
		t.Fatalf("exit=%d", code)
	}
}

// TestDefaultsMatchFleetBenchmark: with no flags, the replica runs with
// the Config the fleet benchmark builds (service.Config{Addr} in
// bench/fleet.go), so what ships is what is measured.
func TestDefaultsMatchFleetBenchmark(t *testing.T) {
	got, ok := config(nil)
	if !ok {
		t.Fatal("config rejected an empty command line")
	}
	got.Logger = nil // a sink the caller supplies, not a setting
	want := service.Config{}.Normalize()
	if got := got.Normalize(); !reflect.DeepEqual(got, want) {
		t.Fatalf("flag defaults normalize to\n%+v\nthe benchmarked Config to\n%+v", got, want)
	}
}

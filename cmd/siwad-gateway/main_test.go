package main

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
)

func TestBadFlagExitsTwo(t *testing.T) {
	if code := run([]string{"-bogus"}); code != 2 {
		t.Fatalf("exit=%d", code)
	}
	if code := run([]string{"-backends", "http://a:1", "-retries", "nope"}); code != 2 {
		t.Fatalf("exit=%d", code)
	}
}

func TestMissingBackendsExitsTwo(t *testing.T) {
	if code := run(nil); code != 2 {
		t.Fatalf("exit=%d", code)
	}
	if code := run([]string{"-backends", " , ,"}); code != 2 {
		t.Fatalf("exit=%d", code)
	}
}

func TestDuplicateBackendExitsTwo(t *testing.T) {
	if code := run([]string{"-backends", "http://a:1,http://a:1/"}); code != 2 {
		t.Fatalf("exit=%d (trailing slash must not disguise a duplicate)", code)
	}
}

func TestBadLogModeExitsTwo(t *testing.T) {
	if code := run([]string{"-backends", "http://a:1", "-log", "xml"}); code != 2 {
		t.Fatalf("exit=%d", code)
	}
}

func TestBadAddrExitsOne(t *testing.T) {
	if code := run([]string{"-backends", "http://a:1", "-addr", "256.256.256.256:http", "-log", "off"}); code != 1 {
		t.Fatalf("exit=%d", code)
	}
}

func TestParseBackends(t *testing.T) {
	got := parseBackends(" http://a:8080/ ,, http://b:8080 ,")
	want := []string{"http://a:8080", "http://b:8080"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseBackends=%v, want %v", got, want)
	}
	if got := parseBackends(""); got != nil {
		t.Fatalf("empty spec parsed to %v", got)
	}
}

// TestDefaultsMatchFleetBenchmark: given only -backends, the gateway runs
// with the Config the fleet benchmark builds (cluster.Config{Addr,
// Backends} in bench/fleet.go), so what ships is what is measured.
func TestDefaultsMatchFleetBenchmark(t *testing.T) {
	backends := []string{"http://a:1", "http://b:1"}
	got, ok := config([]string{"-backends", "http://a:1,http://b:1"})
	if !ok {
		t.Fatal("config rejected the required flags alone")
	}
	got.Logger = nil // a sink the caller supplies, not a setting
	want := cluster.Config{Backends: backends}.Normalize()
	if got := got.Normalize(); !reflect.DeepEqual(got, want) {
		t.Fatalf("flag defaults normalize to\n%+v\nthe benchmarked Config to\n%+v", got, want)
	}
}

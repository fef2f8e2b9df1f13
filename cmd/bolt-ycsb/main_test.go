package main

import (
	"testing"

	"github.com/bolt-lsm/bolt"
	"github.com/bolt-lsm/bolt/internal/ycsb"
)

func TestParseProfile(t *testing.T) {
	cases := map[string]bolt.Profile{
		"leveldb":   bolt.ProfileLevelDB,
		"LEVELDB64": bolt.ProfileLevelDB64MB,
		"lvl64":     bolt.ProfileLevelDB64MB,
		"hyper":     bolt.ProfileHyperLevelDB,
		"rocks":     bolt.ProfileRocksDB,
		"pebbles":   bolt.ProfilePebblesDB,
		"bolt":      bolt.ProfileBoLT,
		"hbolt":     bolt.ProfileHyperBoLT,
	}
	for in, want := range cases {
		got, err := parseProfile(in)
		if err != nil || got != want {
			t.Errorf("parseProfile(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseProfile("nope"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestParseWorkload(t *testing.T) {
	cases := map[string]ycsb.Workload{
		"LA": ycsb.LoadA, "le": ycsb.LoadE,
		"a": ycsb.WorkloadA, "B": ycsb.WorkloadB, "c": ycsb.WorkloadC,
		"D": ycsb.WorkloadD, "e": ycsb.WorkloadE, "F": ycsb.WorkloadF,
	}
	for in, want := range cases {
		got, err := parseWorkload(in)
		if err != nil || got != want {
			t.Errorf("parseWorkload(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseWorkload("Z"); err == nil {
		t.Error("unknown workload accepted")
	}
}

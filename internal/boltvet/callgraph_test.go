package boltvet

import (
	"path/filepath"
	"strings"
	"testing"
)

func loadProgram(t *testing.T, fixture string) (*Program, string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	pkgs, err := Load(LoadConfig{}, dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	prog := BuildProgram(pkgs)
	ComputeSummaries(prog)
	return prog, pkgs[0].ImportPath
}

// TestLockSummariesTwoHop pins the compositional half of the engine: a
// function that only *calls* something that locks must still summarize the
// acquire, with the witness chain, and the unlock-then-relock callee must
// publish the release so holding callers are not flagged.
func TestLockSummariesTwoHop(t *testing.T) {
	prog, path := loadProgram(t, "lockorder")
	mu := path + ".S.mu"

	middle := prog.Func(path + ".(S).middle")
	if middle == nil {
		t.Fatalf("middle not in program; keys: %v", len(prog.Funcs))
	}
	acq := prog.locks[middle][mu]
	if acq == nil {
		t.Fatalf("middle's summary does not acquire %s: %+v", mu, prog.locks[middle])
	}
	if got := strings.Join(acq.chain, " -> "); got != "inner" {
		t.Errorf("middle's chain = %q, want %q", got, "inner")
	}
	if acq.releasedBefore[mu] {
		t.Errorf("middle releasedBefore contains %s; it never unlocks", mu)
	}

	relocks := prog.Func(path + ".(S).relocks")
	if relocks == nil {
		t.Fatal("relocks not in program")
	}
	racq := prog.locks[relocks][mu]
	if racq == nil {
		t.Fatalf("relocks' summary does not acquire %s", mu)
	}
	if !racq.releasedBefore[mu] {
		t.Errorf("relocks must publish that it releases %s before re-acquiring; callers holding it are safe", mu)
	}

	readInner := prog.Func(path + ".(S).readInner")
	if readInner == nil {
		t.Fatal("readInner not in program")
	}
	rw := path + ".S.rw"
	if a := prog.locks[readInner][rw]; a == nil || !a.read {
		t.Errorf("readInner must summarize a read acquire of %s, got %+v", rw, a)
	}
}

// TestErrSummariesTwoHop pins the errflow half: the barrier chain propagates
// through two hops of helpers and carries the witness chain down to the
// barrier method.
func TestErrSummariesTwoHop(t *testing.T) {
	prog, path := loadProgram(t, "errflow")

	layer2 := prog.Func(path + ".layer2")
	if layer2 == nil {
		t.Fatal("layer2 not in program")
	}
	if got := strings.Join(prog.errs[layer2], " -> "); got != "barrier -> Sync" {
		t.Errorf("layer2's chain = %q, want %q", got, "barrier -> Sync")
	}

	// dropStmt returns nothing; inLiteral's only returned Sync error is a
	// function literal's; closeReturned returns a Close error, which is
	// weak.
	for _, name := range []string{"dropStmt", "inLiteral", "closeReturned"} {
		fi := prog.Func(path + "." + name)
		if fi == nil {
			t.Fatalf("%s not in program", name)
		}
		if prog.errs[fi] != nil {
			t.Errorf("%s must not summarize as returning a barrier error", name)
		}
	}
}

// TestCallGraphResolution sanity-checks the resolver over a fixture: every
// fixture method is registered, calls resolve to in-program targets, and
// the stats see the edges.
func TestCallGraphResolution(t *testing.T) {
	prog, path := loadProgram(t, "lockorder")

	outer := prog.Func(path + ".(S).outer")
	if outer == nil {
		t.Fatal("outer not in program")
	}
	// Targets may name out-of-program functions (sync.(Mutex).Lock); the
	// resolver keys them anyway so summaries stay name-stable. The call to
	// middle must resolve to the in-program declaration.
	var sawMiddle bool
	for _, cs := range outer.Calls {
		for _, target := range cs.Targets {
			if target == path+".(S).middle" {
				sawMiddle = true
			}
		}
	}
	if !sawMiddle {
		t.Error("outer's call to middle did not resolve")
	}
	if prog.Stats.Funcs == 0 || prog.Stats.Edges == 0 {
		t.Errorf("degenerate graph stats: %+v", prog.Stats)
	}
}

// TestInterfaceFanOut pins interface-call resolution: a candidate method
// is kept only when its receiver declares every method of the interface
// (or embeds a field that may supply one), so writer.Seal's call through
// Syncer does not resolve to writer.Sync.
func TestInterfaceFanOut(t *testing.T) {
	prog, path := loadProgram(t, "lockorder")
	ws := prog.Func(path + ".(writer).Seal")
	if ws == nil {
		t.Fatal("writer.Seal not in program")
	}
	var got []string
	for _, cs := range ws.Calls {
		if calleeName(cs.Call) == "Sync" {
			got = append(got, cs.Targets...)
		}
	}
	want := []string{path + ".(diskFile).Sync", path + ".(wrapped).Sync"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("w.f.Sync resolves to %v, want %v", got, want)
	}
}

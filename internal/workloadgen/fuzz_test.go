package workloadgen

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// FuzzLoadSpec feeds arbitrary bytes to LoadSpec as a spec file. It
// must never panic; whatever it accepts must already be canonical
// (Validate leaves it unchanged) and must survive a JSON round trip
// through LoadSpec unchanged.
func FuzzLoadSpec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("{}"))
	f.Add([]byte(`{"v":2}`))
	for _, s := range []Spec{mustBuiltin(f, "uniform"), mustBuiltin(f, "bursty"), burstySpec()} {
		raw, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "spec.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := LoadSpec(path)
		if err != nil {
			return
		}
		again, err := s.Validate()
		if err != nil {
			t.Fatalf("accepted spec fails Validate: %v", err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("accepted spec not canonical:\n got  %+v\n then %+v", s, again)
		}
		blob, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		rePath := filepath.Join(dir, "re.json")
		if err := os.WriteFile(rePath, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := LoadSpec(rePath)
		if err != nil {
			t.Fatalf("re-marshaled spec rejected: %v\n%s", err, blob)
		}
		if !reflect.DeepEqual(re, s) {
			t.Fatalf("spec changed through a JSON round trip:\n in  %+v\n out %+v", s, re)
		}
	})
}

// FuzzReadTrace feeds arbitrary bytes to ReadTrace as a trace file. It
// must never panic; whatever it accepts must have non-negative,
// non-decreasing arrival offsets and must record and replay to the same
// schedule.
func FuzzReadTrace(f *testing.F) {
	m := testMeta()
	f.Add([]byte{})
	f.Add([]byte(`{"schema":1,"kind":"pace-workload-trace"}` + "\n"))
	for _, spec := range []Spec{burstySpec(), mustBuiltin(f, "uniform")} {
		s, err := Generate(spec, testPool(6), nil, 200*time.Millisecond, 1)
		if err != nil {
			f.Fatal(err)
		}
		path := filepath.Join(f.TempDir(), "seed.jsonl")
		if err := WriteTrace(path, s, m); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.jsonl")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := ReadTrace(path, m)
		if err != nil {
			return
		}
		var prev time.Duration
		for i, a := range s.Arrivals {
			if a.T < prev {
				t.Fatalf("accepted arrival %d at %v, before %v", i, a.T, prev)
			}
			prev = a.T
		}
		rePath := filepath.Join(dir, "re.jsonl")
		if err := WriteTrace(rePath, s, m); err != nil {
			t.Fatalf("accepted trace does not record: %v", err)
		}
		re, err := ReadTrace(rePath, m)
		if err != nil {
			t.Fatalf("re-recorded trace rejected: %v", err)
		}
		if !reflect.DeepEqual(re, s) {
			t.Fatalf("schedule changed through record and replay:\n in  %+v\n out %+v", s, re)
		}
	})
}

func mustBuiltin(tb testing.TB, name string) Spec {
	tb.Helper()
	s, err := Builtin(name)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

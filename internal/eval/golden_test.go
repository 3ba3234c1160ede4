package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/runners.golden.json")

// TestRunnersGolden pins the results of all seven runners under
// smallOptions, with every wall-clock duration zeroed. The cases run
// three at a time, so the golden also shows that the aggregates do not
// depend on the order in which cases finish.
func TestRunnersGolden(t *testing.T) {
	ctx := context.Background()
	o := smallOptions()
	o.Parallel = 3
	runners := map[string]func() (any, error){
		"deviation":    func() (any, error) { return RunDeviation(ctx, o) },
		"futurefit":    func() (any, error) { return RunFutureFit(ctx, o) },
		"ablation":     func() (any, error) { return RunAblation(ctx, o) },
		"criteria":     func() (any, error) { return RunCriterionAblation(ctx, o) },
		"relaxed":      func() (any, error) { return RunRelaxed(ctx, o) },
		"portfolio":    func() (any, error) { return RunPortfolio(ctx, o) },
		"multicluster": func() (any, error) { return RunMulticluster(ctx, o) },
	}
	all := map[string]any{}
	for name, run := range runners {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		zeroDurations(reflect.ValueOf(res))
		all[name] = res
	}
	got, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "runners.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("runner results differ from %s:\n%s", path, got)
	}
}

// zeroDurations sets every time.Duration reachable from v to 0: the
// wall-clock times are the only results that differ between runs.
func zeroDurations(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		zeroDurations(v.Elem())
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			zeroDurations(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			zeroDurations(v.Field(i))
		}
	case reflect.Int64:
		if v.Type() == reflect.TypeOf(time.Duration(0)) {
			v.SetInt(0)
		}
	}
}

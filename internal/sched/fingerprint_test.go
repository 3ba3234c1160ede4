package sched_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"incdes/internal/gen"
	"incdes/internal/sched"
)

// checkedFingerprint returns st's fingerprint after comparing it with
// the fmt reference renderer.
func checkedFingerprint(t testing.TB, st *sched.State) []byte {
	t.Helper()
	got, want := st.Fingerprint(), sched.FingerprintFmt(st)
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("fingerprint differs from the fmt reference at byte %d: %q, want %q",
			i, got[i:min(i+60, len(got))], want[i:min(i+60, len(want))])
	}
	return got
}

// TestFingerprintMatchesFmtReference pins the persisted fingerprint
// bytes to the fmt rendering they replaced, on an empty state and on
// generated single-bus and three-cluster states (whose inter-cluster
// hops set Bus and Hop): the frozen base, after each Apply of a
// transaction (a second Apply of the same application adds later
// entries of the same jobs, which win the job and mapping views), after
// its Rollback, after MapApp, and after a ScheduleApp that fails
// part-way and undoes itself.
func TestFingerprintMatchesFmtReference(t *testing.T) {
	configs := []struct {
		name string
		cfg  gen.Config
	}{
		{"single-bus", quickConfig()},
		{"three-cluster", gen.Multicluster(3, 3, 0.3)},
	}
	hops, twice := 0, 0
	for _, c := range configs {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				tc, err := gen.MakeTestCase(c.cfg, seed, 40, 15)
				if err != nil {
					t.Fatal(err)
				}
				empty, err := sched.NewState(tc.Sys)
				if err != nil {
					t.Fatal(err)
				}
				checkedFingerprint(t, empty)

				st := tc.Base.Clone()
				pre := checkedFingerprint(t, st)
				rng := rand.New(rand.NewSource(seed))
				txn := st.Begin()
				applied := 0
				for k := 0; k < 3; k++ {
					if txn.Apply(tc.Current, randomMapping(rng, tc.Current), fuzzHints(rng, tc.Current)) == nil {
						applied++
					}
					checkedFingerprint(t, st)
				}
				if applied >= 2 {
					twice++
				}
				txn.Rollback()
				if !bytes.Equal(checkedFingerprint(t, st), pre) {
					t.Fatal("rollback did not restore the base")
				}

				mapping, err := st.MapApp(tc.Current, sched.Hints{})
				if err != nil {
					t.Fatal(err)
				}
				checkedFingerprint(t, st)
				for _, m := range st.MsgEntries() {
					if m.Bus != 0 || m.Hop != 0 {
						hops++
					}
				}

				// Without one process's mapping, ScheduleApp places the
				// jobs ordered before that process's first job, then
				// fails and undoes them.
				failed := tc.Base.Clone()
				partial := mapping.Clone()
				last := tc.Current.Graphs[len(tc.Current.Graphs)-1]
				delete(partial, last.Procs[len(last.Procs)-1].ID)
				if err := failed.ScheduleApp(tc.Current, partial, sched.Hints{}); err == nil {
					t.Fatal("ScheduleApp with an incomplete mapping succeeded")
				}
				if !bytes.Equal(checkedFingerprint(t, failed), pre) {
					t.Fatal("a failed ScheduleApp changed the state")
				}
			})
		}
	}
	if hops == 0 {
		t.Error("no message hop with Bus or Hop set was fingerprinted")
	}
	if twice == 0 {
		t.Error("no transaction applied the application twice")
	}
}

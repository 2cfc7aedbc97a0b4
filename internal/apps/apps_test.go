package apps

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRegistryCoversTable1(t *testing.T) {
	for _, name := range append(EclipseApps(), VoltaApps()...) {
		if _, err := Get(name); err != nil {
			t.Errorf("Table 1 app %q not registered: %v", name, err)
		}
	}
	if _, err := Get("empire"); err != nil {
		t.Error("empire (the §6.2 application) must be registered")
	}
	if _, err := Get("no-such-app"); err == nil {
		t.Error("unknown app should error")
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := registeredNames()
	if len(names) < 18 {
		t.Fatalf("only %d signatures registered", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatal("registered names must be sorted and unique")
		}
	}
}

// registeredNames lists every registered application, sorted so a seed
// picks the same signature on every run.
func registeredNames() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func TestRunReproducible(t *testing.T) {
	sig, _ := Get("lammps")
	a := sig.NewRun(100, 42)
	b := sig.NewRun(100, 42)
	for ti := int64(0); ti < 100; ti++ {
		da, db := a.DriversAt(ti), b.DriversAt(ti)
		if da != db {
			t.Fatalf("same seed diverged at t=%d", ti)
		}
	}
}

func TestRunsVaryAcrossSeeds(t *testing.T) {
	sig, _ := Get("lammps")
	a := sig.NewRun(50, 1)
	b := sig.NewRun(50, 2)
	same := true
	for ti := int64(0); ti < 50; ti++ {
		if a.DriversAt(ti) != b.DriversAt(ti) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds must produce different runs")
	}
}

func TestMemoryRampsUp(t *testing.T) {
	sig, _ := Get("hacc") // RampSeconds 90
	run := sig.NewRun(300, 7)
	early := run.DriversAt(5).MemUsedFrac
	late := run.DriversAt(200).MemUsedFrac
	if late < 2*early {
		t.Fatalf("memory should ramp: early=%v late=%v", early, late)
	}
	if late < sig.MemLow*0.8 || late > sig.MemHigh*1.2 {
		t.Fatalf("steady footprint %v outside [%v, %v]", late, sig.MemLow, sig.MemHigh)
	}
}

func TestSignaturesAreDistinct(t *testing.T) {
	// Two different applications should produce visibly different mean CPU
	// or memory profiles — the "unique characteristics" property.
	a, _ := Get("minimd") // tiny memory, high CPU
	b, _ := Get("nas-ft") // big memory, lower CPU
	ra, rb := a.NewRun(200, 1), b.NewRun(200, 1)
	var cpuA, cpuB, memA, memB float64
	for ti := int64(100); ti < 200; ti++ {
		da, db := ra.DriversAt(ti), rb.DriversAt(ti)
		cpuA += da.User
		cpuB += db.User
		memA += da.MemUsedFrac
		memB += db.MemUsedFrac
	}
	if !(cpuA > cpuB && memA < memB) {
		t.Fatalf("expected minimd cpu>%v and mem<%v (got cpu=%v mem=%v)", cpuB/100, memB/100, cpuA/100, memA/100)
	}
}

func TestClampBoundsCPUAndFractions(t *testing.T) {
	d := Drivers{User: 2, Sys: 0.5, MemUsedFrac: 1.5, PgFault: -10, DirtyFrac: -0.1}
	d.Clamp()
	total := d.User + d.Sys + d.IOWait + d.IRQ + d.SoftIRQ + d.Nice
	if total > 1+1e-9 {
		t.Fatalf("CPU total %v > 1", total)
	}
	// Proportions preserved: User was 4x Sys.
	if math.Abs(d.User/d.Sys-4) > 1e-9 {
		t.Fatalf("clamp must preserve CPU proportions: %v / %v", d.User, d.Sys)
	}
	if d.MemUsedFrac > 0.98 || d.PgFault != 0 || d.DirtyFrac != 0 {
		t.Fatalf("fractions/rates not clamped: %+v", d)
	}
}

// Property: every registered signature yields valid drivers at every time
// step — CPU shares within [0,1], fractions within [0,1), rates
// non-negative and finite.
func TestQuickDriversValid(t *testing.T) {
	names := registeredNames()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sig, err := Get(names[rng.Intn(len(names))])
		if err != nil {
			return false
		}
		dur := int64(50 + rng.Intn(300))
		run := sig.NewRun(dur, seed)
		for _, ti := range []int64{0, 1, dur / 2, dur - 1} {
			d := run.DriversAt(ti)
			cpu := d.User + d.Sys + d.IOWait + d.IRQ + d.SoftIRQ + d.Nice
			if cpu < 0 || cpu > 1+1e-9 {
				return false
			}
			for _, v := range []float64{
				d.MemUsedFrac, d.FileCacheFrac, d.DirtyFrac, d.PgFault, d.PgIn,
				d.PgOut, d.Ctxt, d.ProcsRunning, d.NumaHit,
			} {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

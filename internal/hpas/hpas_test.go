package hpas

import (
	"math/rand"
	"testing"

	"prodigy/internal/apps"
)

func baseDrivers() apps.Drivers {
	return apps.Drivers{
		User: 0.7, Sys: 0.05, IOWait: 0.01,
		MemUsedFrac: 0.3, FileCacheFrac: 0.1, DirtyFrac: 0.002,
		PgFault: 1000, PgIn: 500, PgOut: 300, PgAlloc: 1200, PgFree: 1200,
		Ctxt: 3000, Intr: 1500, NumaHit: 2000, NumaMiss: 50,
		ProcsRunning: 20,
	}
}

func TestNoneIsIdentity(t *testing.T) {
	d := baseDrivers()
	before := d
	None{}.Apply(&d, 100, 1000, rand.New(rand.NewSource(1)))
	if d != before {
		t.Fatal("None must not modify drivers")
	}
	if (None{}).Name() != "none" {
		t.Fatal("name")
	}
}

func TestMemleakGrowsMonotonically(t *testing.T) {
	inj := Memleak{SizeMB: 10, Period: 1}
	rng := rand.New(rand.NewSource(1))
	prev := -1.0
	for _, ti := range []int64{0, 100, 500, 1000, 1500} {
		d := baseDrivers()
		inj.Apply(&d, ti, 2000, rng)
		if d.MemUsedFrac <= prev {
			t.Fatalf("leak must grow: t=%d frac=%v prev=%v", ti, d.MemUsedFrac, prev)
		}
		prev = d.MemUsedFrac
	}
}

func TestMemleakTriggersPressure(t *testing.T) {
	inj := Memleak{SizeMB: 10, Period: 1}
	rng := rand.New(rand.NewSource(1))
	d := baseDrivers()
	d.MemUsedFrac = 0.6
	inj.Apply(&d, 8000, 10000, rng) // ~78 GB leaked on a 128 GB node
	if d.SwapOut == 0 || d.PgScan <= baseDrivers().PgScan {
		t.Fatalf("late-stage leak must cause swap/reclaim: %+v", d)
	}
}

func TestCPUOccupyPinsUtilization(t *testing.T) {
	inj := CPUOccupy{Utilization: 1.0}
	rng := rand.New(rand.NewSource(1))
	d := baseDrivers()
	inj.Apply(&d, 10, 100, rng)
	d.Clamp()
	total := d.User + d.Sys + d.IOWait + d.IRQ + d.SoftIRQ + d.Nice
	if total < 0.99 {
		t.Fatalf("cpuoccupy -u 100%% should saturate CPU, total=%v", total)
	}
	if d.ProcsRunning <= baseDrivers().ProcsRunning {
		t.Fatal("runnable process count should rise")
	}
}

func TestMembwRaisesNumaTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	light := baseDrivers()
	Membw{SizeKB: 4}.Apply(&light, 10, 100, rng)
	heavy := baseDrivers()
	Membw{SizeKB: 32}.Apply(&heavy, 10, 100, rng)
	if heavy.NumaMiss <= light.NumaMiss {
		t.Fatal("heavier membw config must cause more NUMA misses")
	}
	if light.NumaMiss <= baseDrivers().NumaMiss {
		t.Fatal("membw must raise NUMA misses above baseline")
	}
}

func TestCacheCopyRaisesCtxt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := baseDrivers()
	CacheCopy{Level: "L2", Mult: 2}.Apply(&d, 10, 100, rng)
	if d.Ctxt <= baseDrivers().Ctxt {
		t.Fatal("cachecopy must raise context switches")
	}
	unknown := baseDrivers()
	CacheCopy{Level: "L9", Mult: 1}.Apply(&unknown, 10, 100, rng)
	if unknown.Ctxt <= baseDrivers().Ctxt {
		t.Fatal("unknown level should still apply a default intensity")
	}
}

func TestIODegradeThrottlesIO(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := baseDrivers()
	IODegrade{Severity: 1}.Apply(&d, 10, 100, rng)
	if d.PgIn >= baseDrivers().PgIn || d.PgOut >= baseDrivers().PgOut {
		t.Fatal("iodegrade must reduce paging throughput")
	}
	if d.IOWait <= baseDrivers().IOWait {
		t.Fatal("iodegrade must raise iowait")
	}
	if d.ProcsBlocked <= baseDrivers().ProcsBlocked {
		t.Fatal("iodegrade must raise blocked processes")
	}
}

func TestTable2Inventory(t *testing.T) {
	t2 := Table2()
	wantCounts := map[string]int{"cpuoccupy": 2, "cachecopy": 2, "membw": 3, "memleak": 3}
	for kind, n := range wantCounts {
		if len(t2[kind]) != n {
			t.Errorf("Table 2 %s: %d configs, want %d", kind, len(t2[kind]), n)
		}
		for _, inj := range t2[kind] {
			if inj.Name() != kind {
				t.Errorf("injector name %q under key %q", inj.Name(), kind)
			}
			if inj.Config() == "" {
				t.Errorf("%s config string empty", kind)
			}
		}
	}
	if len(AllTable2()) != 10 {
		t.Fatalf("AllTable2 = %d injectors, want 10", len(AllTable2()))
	}
	// Deterministic order.
	a, b := AllTable2(), AllTable2()
	for i := range a {
		if a[i].Config() != b[i].Config() {
			t.Fatal("AllTable2 order must be deterministic")
		}
	}
}

func TestConfigStrings(t *testing.T) {
	cases := map[Injector]string{
		CPUOccupy{Utilization: 1.0}:     "-u 100%",
		CPUOccupy{Utilization: 0.8}:     "-u 80%",
		Membw{SizeKB: 4}:                "-s 4K",
		Memleak{SizeMB: 3, Period: 0.4}: "-s 3M -p 0.4",
		CacheCopy{Level: "L1", Mult: 1}: "-c L1 -m 1",
	}
	for inj, want := range cases {
		if got := inj.Config(); got != want {
			t.Errorf("%s config = %q, want %q", inj.Name(), got, want)
		}
	}
}

package apps

// This file registers the signatures of every application in Table 1 of the
// paper, plus Empire (the plasma-physics application of the in-the-wild
// experiment, §6.2). Parameters are chosen to give each application a
// distinct, recognizable telemetry fingerprint in the dimensions real HPC
// codes differ: CPU intensity, memory footprint, phase period (iteration
// length), communication/IO share, and paging activity.

func init() {
	// --- Eclipse: real applications ---
	register(&Signature{
		Name: "lammps", Description: "Molecular dynamics (LAMMPS)",
		CPUUser: 0.88, CPUSys: 0.04, IOWait: 0.005,
		MemLow: 0.18, MemHigh: 0.28, FileCache: 0.08, RampSeconds: 40,
		PhasePeriod: 25, PhaseDepth: 0.25,
		PageRate: 900, IORate: 250, CtxtRate: 2600, Noise: 0.05,
	})
	register(&Signature{
		Name: "hacc", Description: "Cosmological simulation (HACC)",
		CPUUser: 0.82, CPUSys: 0.06, IOWait: 0.02,
		MemLow: 0.45, MemHigh: 0.60, FileCache: 0.10, RampSeconds: 90,
		PhasePeriod: 110, PhaseDepth: 0.55,
		PageRate: 1500, IORate: 2200, CtxtRate: 3400, Noise: 0.06,
	})
	register(&Signature{
		Name: "sw4", Description: "Seismic modeling (SW4)",
		CPUUser: 0.75, CPUSys: 0.05, IOWait: 0.03,
		MemLow: 0.35, MemHigh: 0.50, FileCache: 0.14, RampSeconds: 60,
		PhasePeriod: 60, PhaseDepth: 0.45,
		PageRate: 1100, IORate: 1500, CtxtRate: 2000, Noise: 0.05,
	})

	// --- Eclipse: ECP proxy suite ---
	register(&Signature{
		Name: "examinimd", Description: "Molecular dynamics proxy (ExaMiniMD)",
		CPUUser: 0.9, CPUSys: 0.03, IOWait: 0.003,
		MemLow: 0.10, MemHigh: 0.16, FileCache: 0.05, RampSeconds: 25,
		PhasePeriod: 18, PhaseDepth: 0.2,
		PageRate: 650, IORate: 120, CtxtRate: 2100, Noise: 0.04,
	})
	register(&Signature{
		Name: "swfft", Description: "3D Fast Fourier Transform proxy (SWFFT)",
		CPUUser: 0.7, CPUSys: 0.1, IOWait: 0.01,
		MemLow: 0.30, MemHigh: 0.40, FileCache: 0.06, RampSeconds: 30,
		PhasePeriod: 12, PhaseDepth: 0.7,
		PageRate: 2000, IORate: 500, CtxtRate: 5200, Noise: 0.07,
	})
	register(&Signature{
		Name: "sw4lite", Description: "Numerical kernel proxy (sw4lite)",
		CPUUser: 0.8, CPUSys: 0.04, IOWait: 0.015,
		MemLow: 0.20, MemHigh: 0.30, FileCache: 0.09, RampSeconds: 45,
		PhasePeriod: 45, PhaseDepth: 0.35,
		PageRate: 950, IORate: 900, CtxtRate: 1800, Noise: 0.05,
	})

	// --- Volta: NAS parallel benchmarks ---
	register(&Signature{
		Name: "nas-bt", Description: "Block tri-diagonal solver (NAS BT)",
		CPUUser: 0.86, CPUSys: 0.03, IOWait: 0.004,
		MemLow: 0.22, MemHigh: 0.30, FileCache: 0.05, RampSeconds: 20,
		PhasePeriod: 30, PhaseDepth: 0.3,
		PageRate: 800, IORate: 200, CtxtRate: 1900, Noise: 0.04,
	})
	register(&Signature{
		Name: "nas-cg", Description: "Conjugate gradient (NAS CG)",
		CPUUser: 0.78, CPUSys: 0.07, IOWait: 0.004,
		MemLow: 0.28, MemHigh: 0.36, FileCache: 0.04, RampSeconds: 15,
		PhasePeriod: 8, PhaseDepth: 0.5,
		PageRate: 1700, IORate: 150, CtxtRate: 4200, Noise: 0.06,
	})
	register(&Signature{
		Name: "nas-ft", Description: "3D FFT (NAS FT)",
		CPUUser: 0.72, CPUSys: 0.09, IOWait: 0.008,
		MemLow: 0.40, MemHigh: 0.50, FileCache: 0.05, RampSeconds: 20,
		PhasePeriod: 14, PhaseDepth: 0.65,
		PageRate: 2100, IORate: 400, CtxtRate: 4900, Noise: 0.07,
	})
	register(&Signature{
		Name: "nas-lu", Description: "Gauss-Seidel solver (NAS LU)",
		CPUUser: 0.84, CPUSys: 0.05, IOWait: 0.003,
		MemLow: 0.16, MemHigh: 0.24, FileCache: 0.04, RampSeconds: 18,
		PhasePeriod: 22, PhaseDepth: 0.35,
		PageRate: 1000, IORate: 180, CtxtRate: 2800, Noise: 0.05,
	})
	register(&Signature{
		Name: "nas-mg", Description: "Multi-grid on meshes (NAS MG)",
		CPUUser: 0.76, CPUSys: 0.06, IOWait: 0.005,
		MemLow: 0.45, MemHigh: 0.55, FileCache: 0.04, RampSeconds: 15,
		PhasePeriod: 10, PhaseDepth: 0.55,
		PageRate: 2400, IORate: 220, CtxtRate: 3600, Noise: 0.06,
	})
	register(&Signature{
		Name: "nas-sp", Description: "Scalar penta-diagonal solver (NAS SP)",
		CPUUser: 0.85, CPUSys: 0.04, IOWait: 0.004,
		MemLow: 0.20, MemHigh: 0.28, FileCache: 0.05, RampSeconds: 20,
		PhasePeriod: 26, PhaseDepth: 0.28,
		PageRate: 880, IORate: 210, CtxtRate: 2200, Noise: 0.045,
	})

	// --- Volta: Mantevo suite ---
	register(&Signature{
		Name: "minimd", Description: "Molecular dynamics proxy (MiniMD)",
		CPUUser: 0.89, CPUSys: 0.03, IOWait: 0.003,
		MemLow: 0.08, MemHigh: 0.14, FileCache: 0.04, RampSeconds: 15,
		PhasePeriod: 16, PhaseDepth: 0.22,
		PageRate: 600, IORate: 100, CtxtRate: 2000, Noise: 0.04,
	})
	register(&Signature{
		Name: "comd", Description: "Molecular dynamics proxy (CoMD)",
		CPUUser: 0.87, CPUSys: 0.04, IOWait: 0.003,
		MemLow: 0.12, MemHigh: 0.18, FileCache: 0.04, RampSeconds: 18,
		PhasePeriod: 20, PhaseDepth: 0.26,
		PageRate: 700, IORate: 110, CtxtRate: 2300, Noise: 0.045,
	})
	register(&Signature{
		Name: "minighost", Description: "Partial differential equations proxy (MiniGhost)",
		CPUUser: 0.74, CPUSys: 0.08, IOWait: 0.006,
		MemLow: 0.30, MemHigh: 0.40, FileCache: 0.05, RampSeconds: 20,
		PhasePeriod: 13, PhaseDepth: 0.6,
		PageRate: 1600, IORate: 260, CtxtRate: 4400, Noise: 0.06,
	})
	register(&Signature{
		Name: "miniamr", Description: "Stencil calculation with AMR (MiniAMR)",
		CPUUser: 0.7, CPUSys: 0.08, IOWait: 0.01,
		MemLow: 0.25, MemHigh: 0.45, FileCache: 0.06, RampSeconds: 35,
		PhasePeriod: 55, PhaseDepth: 0.5,
		PageRate: 1900, IORate: 700, CtxtRate: 3800, Noise: 0.09,
	})

	// --- Volta: other ---
	register(&Signature{
		Name: "kripke", Description: "Particle transport (Kripke)",
		CPUUser: 0.83, CPUSys: 0.05, IOWait: 0.005,
		MemLow: 0.35, MemHigh: 0.45, FileCache: 0.05, RampSeconds: 25,
		PhasePeriod: 38, PhaseDepth: 0.4,
		PageRate: 1300, IORate: 320, CtxtRate: 3000, Noise: 0.05,
	})

	// --- Empire: the production experiment application (§6.2) ---
	register(&Signature{
		Name: "empire", Description: "Plasma physics (EMPIRE) — §6.2 in-the-wild experiment",
		CPUUser: 0.8, CPUSys: 0.05, IOWait: 0.04,
		MemLow: 0.38, MemHigh: 0.48, FileCache: 0.12, RampSeconds: 70,
		PhasePeriod: 90, PhaseDepth: 0.5,
		PageRate: 1400, IORate: 2600, CtxtRate: 3200, Noise: 0.06,
	})
}

// GPU-accelerated application signatures for the heterogeneous-systems
// extension (paper §7 future work). GPU apps keep a lighter host-CPU
// footprint (launch + MPI threads) and put their weight on the device.
func init() {
	register(&Signature{
		Name: "lammps-gpu", Description: "Molecular dynamics, Kokkos/GPU build (LAMMPS)",
		RequiresGPU: true, GPUUtil: 0.85, GPUMem: 0.55,
		CPUUser: 0.25, CPUSys: 0.08, IOWait: 0.005,
		MemLow: 0.10, MemHigh: 0.16, FileCache: 0.06, RampSeconds: 35,
		PhasePeriod: 22, PhaseDepth: 0.3,
		PageRate: 700, IORate: 300, CtxtRate: 4000, Noise: 0.05,
	})
	register(&Signature{
		Name: "hacc-gpu", Description: "Cosmological simulation, GPU build (HACC)",
		RequiresGPU: true, GPUUtil: 0.75, GPUMem: 0.7,
		CPUUser: 0.3, CPUSys: 0.1, IOWait: 0.02,
		MemLow: 0.25, MemHigh: 0.35, FileCache: 0.08, RampSeconds: 70,
		PhasePeriod: 95, PhaseDepth: 0.55,
		PageRate: 1200, IORate: 1800, CtxtRate: 5200, Noise: 0.06,
	})
	register(&Signature{
		Name: "sw4-gpu", Description: "Seismic modeling, RAJA/GPU build (SW4)",
		RequiresGPU: true, GPUUtil: 0.7, GPUMem: 0.45,
		CPUUser: 0.28, CPUSys: 0.07, IOWait: 0.025,
		MemLow: 0.18, MemHigh: 0.26, FileCache: 0.1, RampSeconds: 50,
		PhasePeriod: 55, PhaseDepth: 0.45,
		PageRate: 900, IORate: 1300, CtxtRate: 3400, Noise: 0.055,
	})
}

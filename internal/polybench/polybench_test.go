package polybench_test

import (
	"strings"
	"testing"

	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/harness"
	"ghostbusters/internal/polybench"
)

// small sizes keep the full-matrix test quick while still reaching the
// trace-translation thresholds.
var testSizes = map[string]int{
	"gemm": 10, "2mm": 8, "3mm": 8, "atax": 16, "bicg": 16, "mvt": 16,
	"gesummv": 12, "gemver": 12, "syrk": 10, "syr2k": 8, "trmm": 10,
	"floyd-warshall": 8, "durbin": 12, "nussinov": 10,
	"doitgen": 6, "trisolv": 16, "jacobi-1d": 64, "jacobi-2d": 12,
	"seidel-2d": 10,
}

// Every kernel must produce reference-identical results under every
// mitigation mode — this is the master end-to-end correctness sweep of
// the whole DBT pipeline over realistic loop nests.
func TestAllKernelsAllModes(t *testing.T) {
	for _, k := range polybench.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			n := testSizes[k.Name]
			if n == 0 {
				n = k.DefaultN
			}
			for _, mode := range harness.Fig4Modes {
				if _, err := harness.RunKernel(k, n, dbt.DefaultConfig(), []core.Mode{mode}); err != nil {
					t.Fatalf("%s under %s: %v", k.Name, mode, err)
				}
			}
		})
	}
}

func TestMatmulPtrAllModes(t *testing.T) {
	k, err := polybench.ByName("matmul-ptr")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range harness.Fig4Modes {
		row, err := harness.RunKernel(k, 10, dbt.DefaultConfig(), []core.Mode{mode})
		if err != nil {
			t.Fatalf("matmul-ptr under %s: %v", mode, err)
		}
		// The pointer layout must trigger the Spectre pattern detector
		// under the analysing modes.
		if mode == core.ModeGhostBusters && row.Stats[mode].PatternsFound == 0 {
			t.Error("pointer-layout matmul did not trigger the poison analysis")
		}
	}
}

func TestFlatGemmHasNoPattern(t *testing.T) {
	k, err := polybench.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	row, err := harness.RunKernel(k, 10, dbt.DefaultConfig(), []core.Mode{core.ModeGhostBusters})
	if err != nil {
		t.Fatal(err)
	}
	run := row.Stats[core.ModeGhostBusters]
	// Flat affine accesses never use loaded values as addresses: the
	// paper's observation that the pattern is rare in the standard suite.
	if run.PatternsFound != 0 {
		t.Errorf("flat gemm flagged %d patterns; expected none", run.PatternsFound)
	}
}

func TestKernelsExerciseSpeculation(t *testing.T) {
	k, err := polybench.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	row, err := harness.RunKernel(k, 10, dbt.DefaultConfig(), []core.Mode{core.ModeUnsafe})
	if err != nil {
		t.Fatal(err)
	}
	run := row.Stats[core.ModeUnsafe]
	if run.SpecLoads == 0 {
		t.Error("gemm under unsafe issued no speculative loads")
	}
	if run.Traces == 0 {
		t.Error("gemm built no traces")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"gemm", "jacobi-1d", "matmul-ptr"} {
		k, err := polybench.ByName(name)
		if err != nil || k.Name != name {
			t.Errorf("ByName(%s) = %v, %v", name, k.Name, err)
		}
	}
	if _, err := polybench.ByName("nope"); err == nil {
		t.Error("ByName(nope) should fail")
	}
}

func TestSpecSourcesAssemble(t *testing.T) {
	for _, k := range polybench.All() {
		spec, err := k.Make(6)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if !strings.Contains(spec.Source, "main:") || !strings.Contains(spec.Source, "ecall") {
			t.Errorf("%s: malformed source", k.Name)
		}
		if len(spec.Outputs) == 0 || len(spec.Expected) == 0 {
			t.Errorf("%s: no outputs declared", k.Name)
		}
	}
}

package harness

import (
	"context"
	"strings"
	"testing"

	"ghostbusters/internal/attack"
	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/polybench"
)

// runSpec builds the spec's artifact and runs it on a fresh machine,
// validating its outputs.
func runSpec(spec *polybench.Spec, cfg dbt.Config) (*KernelRun, error) {
	art, err := BuildArtifact(spec)
	if err != nil {
		return nil, err
	}
	return runArtifact(art, cfg)
}

func TestRunSpecValidatesOutputs(t *testing.T) {
	spec, err := polybench.MakeGemm(8)
	if err != nil {
		t.Fatal(err)
	}
	run, err := runSpec(spec, dbt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if run.Cycles == 0 || run.Name != "gemm" {
		t.Fatalf("run = %+v", run)
	}
}

// An output name that is not declared in Arrays must surface as a
// descriptive error up front — not a nil-pointer panic mid-validation.
func TestRunSpecUndeclaredOutput(t *testing.T) {
	spec, err := polybench.MakeGemm(6)
	if err != nil {
		t.Fatal(err)
	}
	spec.Outputs = append(spec.Outputs, "ghost")
	_, err = runSpec(spec, dbt.DefaultConfig())
	if err == nil {
		t.Fatal("runSpec accepted an undeclared output")
	}
	if !strings.Contains(err.Error(), "ghost") || !strings.Contains(err.Error(), "not declared") {
		t.Fatalf("error not descriptive: %v", err)
	}
}

// Slowdowns require the ModeUnsafe baseline: without it the Slowdown
// map stays empty and renderers print n/a rather than a bogus 0.0%.
func TestSlowdownRequiresBaseline(t *testing.T) {
	k, err := polybench.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	modes := []core.Mode{core.ModeGhostBusters, core.ModeNoSpeculation}
	row, err := RunKernel(k, 6, dbt.DefaultConfig(), modes)
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Slowdown) != 0 {
		t.Fatalf("slowdowns computed without a baseline: %v", row.Slowdown)
	}
	table := FormatRows([]*Row{row}, modes)
	if !strings.Contains(table, "n/a") {
		t.Fatalf("table should render n/a without a baseline:\n%s", table)
	}
	if strings.Contains(table, "0.0%") {
		t.Fatalf("table renders a bogus 0.0%% slowdown:\n%s", table)
	}
	csv := CSV([]*Row{row}, modes)
	if !strings.Contains(csv, ",n/a,") {
		t.Fatalf("csv should render n/a without a baseline:\n%s", csv)
	}
	if strings.Contains(csv, ",0.0000,") {
		t.Fatalf("csv renders a bogus 0.0000 slowdown:\n%s", csv)
	}
}

func TestRunSpecDetectsWrongReference(t *testing.T) {
	spec, err := polybench.MakeGemm(6)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the expected output: the run must fail validation.
	spec.Expected["C"][0]++
	if _, err := runSpec(spec, dbt.DefaultConfig()); err == nil {
		t.Fatal("runSpec accepted a wrong result")
	}
}

func TestRunKernelSlowdowns(t *testing.T) {
	k, err := polybench.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunKernel(k, 8, dbt.DefaultConfig(), Fig4Modes)
	if err != nil {
		t.Fatal(err)
	}
	if row.Slowdown[core.ModeUnsafe] != 1.0 {
		t.Fatalf("unsafe slowdown = %v, want 1.0", row.Slowdown[core.ModeUnsafe])
	}
	for _, m := range Fig4Modes {
		if row.Cycles[m] == 0 {
			t.Fatalf("no cycles for %s", m)
		}
		if s := row.Slowdown[m]; s < 0.5 || s > 3 {
			t.Fatalf("implausible slowdown %v for %s", s, m)
		}
	}
	// NoSpeculation must never beat the speculating baseline on this
	// load-bound kernel.
	if row.Slowdown[core.ModeNoSpeculation] < 1.0 {
		t.Errorf("nospec faster than unsafe: %v", row.Slowdown[core.ModeNoSpeculation])
	}
}

func TestRunSpectreApp(t *testing.T) {
	modes := []core.Mode{core.ModeUnsafe, core.ModeGhostBusters}
	rows, err := (&Runner{}).RunMatrix(context.Background(), dbt.DefaultConfig(), []Bench{SpectreBench(attack.V1)}, modes)
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	if row.Name != "spectre-v1" || row.Cycles[core.ModeUnsafe] == 0 {
		t.Fatalf("row = %+v", row)
	}
}

func TestFormatRows(t *testing.T) {
	k, _ := polybench.ByName("atax")
	row, err := RunKernel(k, 8, dbt.DefaultConfig(), Fig4Modes)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatRows([]*Row{row}, Fig4Modes)
	for _, want := range []string{"atax", "geo-mean", "%", "cy"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestGeoMean(t *testing.T) {
	rows := []*Row{
		{Slowdown: map[core.Mode]float64{core.ModeNoSpeculation: 2.0}},
		{Slowdown: map[core.Mode]float64{core.ModeNoSpeculation: 0.5}},
	}
	if g := GeoMean(rows, core.ModeNoSpeculation); g < 0.99 || g > 1.01 {
		t.Fatalf("geomean(2, 0.5) = %v, want 1", g)
	}
	if g := GeoMean(nil, core.ModeNoSpeculation); g != 0 {
		t.Fatalf("geomean(empty) = %v", g)
	}
}

func TestPoCMatrixShape(t *testing.T) {
	table, entries, err := PoCMatrix(dbt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(AllModes()); len(entries) != want {
		t.Fatalf("entries = %d, want %d (2 variants x all registered modes)", len(entries), want)
	}
	if !strings.Contains(table, "spectre-v1") || !strings.Contains(table, "ghostbusters") {
		t.Fatalf("table malformed:\n%s", table)
	}
	// Count leaks: exactly the two unsafe rows.
	leaks := 0
	for _, e := range entries {
		if e.Result.Success() {
			leaks++
			if e.Mode != core.ModeUnsafe {
				t.Errorf("leak under %s", e.Mode)
			}
		}
	}
	if leaks != 2 {
		t.Fatalf("leaks = %d, want 2", leaks)
	}
}

func TestCSV(t *testing.T) {
	k, _ := polybench.ByName("gemm")
	row, err := RunKernel(k, 8, dbt.DefaultConfig(), []core.Mode{core.ModeUnsafe, core.ModeNoSpeculation})
	if err != nil {
		t.Fatal(err)
	}
	out := CSV([]*Row{row}, []core.Mode{core.ModeUnsafe, core.ModeNoSpeculation})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv has %d lines, want header + 2", len(lines))
	}
	if !strings.HasPrefix(lines[1], "gemm,unsafe,") {
		t.Fatalf("csv row malformed: %s", lines[1])
	}
	for _, line := range lines[1:] {
		if got := strings.Count(line, ","); got != 7 {
			t.Fatalf("csv row has %d commas: %s", got, line)
		}
	}
}
